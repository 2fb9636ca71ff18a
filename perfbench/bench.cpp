// perfbench — closed-loop dump→restart and region-query benchmark over the
// public API of core/pipeline.h, timed from outside each layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One client thread issues one public call at a time; each starts only
// after the previous one has returned. A round is one dump
// (run_streamed_compress_write), one restart (run_streamed_read) and a
// fixed number of region queries (run_streamed_read_region) against the
// checkpoint just written. Every run attempts whole rounds until --seconds
// have passed. Outputs are checked after each call, outside the timed span,
// against computations made here and not by the library.
//
// --trace 0 prints the end-to-end metrics. Their times are scaled to a fixed
// speed of the host, measured by a reference kernel run between rounds
// (host_reference_s); the times as measured are printed beside them.
// --trace 1 sets up the same workload, runs one public round with
// process/pool/executor deltas, then re-runs the round step by step through
// the layers' public functions and prints the per-layer metrics, writing
// the spans as Chrome trace-event JSON under .bench_out/. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. In the timed rounds a call
// that throws is counted in "failed"; in the traced run, which re-runs a
// single round step by step, any exception ends the run without a result.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/region.h"
#include "common/rng.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/interp_core.h"
#include "compressors/zone.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "io/io_tool.h"
#include "metrics/error_stats.h"
#include "parallel/executor.h"

using namespace eblcio;

namespace {

using Clock = std::chrono::steady_clock;
// Initialised before main runs, so set-up is timed from the process's start.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

int cores() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  std::string dataset;  // "NYX" (3D float32) or "S3D" (4D float64)
  std::vector<std::size_t> dims;
  std::uint64_t field_seed = 1;  // the generator's seed, fixed per workload
  std::string codec;
  double error_bound = 1e-3;  // value-range relative
  bool parallel = false;      // program threads: core count, else 1
  std::string io_library;
};

// Region queries per round: each dump is followed by one box of each of
// these shapes, read from the fresh checkpoint. The shapes' dim-0 extents
// climb a geometric ladder from one row to a quarter of dim 0. An odd count
// of equally weighted shapes puts p50 and p90 in the middle of one shape's
// latencies, never between two, when shapes differ in cost. One box per
// shape keeps the round short, so a run holds more dumps and restarts.
constexpr int kQueriesPerRound = 5;
constexpr int kOpsPerRound = 2 + kQueriesPerRound;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // The paper's serial mode: SZ3 kernels do nearly all the host work.
      {"serial-dump-restart", "NYX", {256, 256, 256}, 3, "SZ3", 1e-3, false,
       "HDF5"},
      // The paper's OpenMP mode on S3D with the fastest codec: whole-field
      // copies, faults, fan-out and ~20 MiB of container traffic per cycle.
      {"parallel-dump-restart", "S3D", {11, 128, 128, 128}, 2, "SZx", 1e-5,
       true, "NetCDF"},
  };
  return all;
}

// Rolls the last two axes of `in` by `shift`, with wrap-around.
template <typename T>
NdArray<T> roll(const NdArray<T>& in, const std::array<std::size_t, 2>& shift) {
  const std::vector<std::size_t> dims = in.shape().dims_vector();
  const std::size_t n1 = dims[dims.size() - 2], n2 = dims.back();
  const std::size_t planes = in.num_elements() / (n1 * n2);
  const std::size_t s2 = shift[1];
  NdArray<T> out(in.shape());
  for (std::size_t p = 0; p < planes; ++p)
    for (std::size_t j = 0; j < n1; ++j) {
      const T* src = in.data() + (p * n1 + j) * n2;
      T* dst = out.data() + (p * n1 + (j + shift[0]) % n1) * n2;
      std::memcpy(dst + s2, src, (n2 - s2) * sizeof(T));
      std::memcpy(dst, src + (n2 - s2), s2 * sizeof(T));
    }
  return out;
}

// The workload's field: the generator's output at the workload's fixed
// seed, rolled along its last two axes by shifts drawn from the run's seed.
// Each seed thus feeds the codecs another byte stream, while every zone (a
// run of dim-0 rows) keeps the same values and so the same decode cost.
// Seeding the generator itself would not do: the NYX-like field's value
// range, and with it the absolute bound, is set by its one largest peak,
// and the ratio went from 88x to 204x over five generator seeds.
Field make_field(const Workload& w, std::uint64_t seed) {
  const Field base = w.dataset == "NYX" ? generate_nyx(w.dims, w.field_seed)
                                        : generate_s3d(w.dims, w.field_seed);
  Rng rng(seed);
  const std::size_t nd = w.dims.size();
  const std::size_t s1 = rng.next_u64() % w.dims[nd - 2];
  const std::size_t s2 = rng.next_u64() % w.dims[nd - 1];
  return base.visit([&](const auto& arr) {
    return Field(base.name(), roll(arr, {s1, s2}));
  });
}

// --- statistics -------------------------------------------------------------

// Quantile with the "exclusive" method of Python's statistics.quantiles.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() + 1) - 1.0;
  if (pos <= 0.0) return v.front();
  if (pos >= static_cast<double>(v.size() - 1)) return v.back();
  const auto lo = static_cast<std::size_t>(pos);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

void print_samples(const char* name, const std::vector<double>& v,
                   double scale, const char* unit) {
  std::printf("  %-13s median %10.4f  q1 %10.4f  q3 %10.4f  p90 %10.4f %s"
              "  (n=%zu)\n",
              name, quantile(v, 0.5) * scale, quantile(v, 0.25) * scale,
              quantile(v, 0.75) * scale, quantile(v, 0.9) * scale, unit,
              v.size());
}

// --- checks made apart from the library --------------------------------------

struct Range {
  double lo = 0.0, hi = 0.0;
};

Range own_range(const Field& f) {
  return f.visit([](const auto& arr) {
    Range r{static_cast<double>(arr.data()[0]),
            static_cast<double>(arr.data()[0])};
    for (std::size_t i = 0; i < arr.num_elements(); ++i) {
      const double x = arr.data()[i];
      r.lo = std::min(r.lo, x);
      r.hi = std::max(r.hi, x);
    }
    return r;
  });
}

// Squared error, peak and bound violations of a reconstruction, summed here
// in one pass so the PSNR does not come from compute_error_stats.
struct ErrorSum {
  double sum_sq = 0.0;
  double peak = -std::numeric_limits<double>::infinity();
  std::size_t n = 0;
  std::size_t violations = 0;

  void add(const ErrorSum& o) {
    sum_sq += o.sum_sq;
    peak = std::max(peak, o.peak);
    n += o.n;
    violations += o.violations;
  }
  double psnr_db() const {
    const double mse = sum_sq / static_cast<double>(n);
    return mse > 0 ? 20.0 * std::log10(std::abs(peak) / std::sqrt(mse))
                   : std::numeric_limits<double>::infinity();
  }
};

template <typename T>
ErrorSum error_sum(const T* x, const T* y, std::size_t n, double bound) {
  ErrorSum s;
  s.n = n;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = static_cast<double>(x[i]) - static_cast<double>(y[i]);
    s.sum_sq += e * e;
    s.peak = std::max(s.peak, static_cast<double>(x[i]));
    if (!(std::abs(e) <= bound)) ++s.violations;
  }
  return s;
}

ErrorSum error_sum(const Field& original, const Field& recon, double bound) {
  if (original.dtype() != recon.dtype() ||
      original.num_elements() != recon.num_elements()) {
    ErrorSum bad;
    bad.violations = 1;
    return bad;
  }
  if (original.dtype() == DType::kFloat32)
    return error_sum(original.as<float>().data(), recon.as<float>().data(),
                     original.num_elements(), bound);
  return error_sum(original.as<double>().data(), recon.as<double>().data(),
                   original.num_elements(), bound);
}

bool same_bytes(const Field& a, const Field& b) {
  return a.dtype() == b.dtype() && a.shape() == b.shape() &&
         std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()) == 0;
}

// 64-bit digest of a field's bytes (splitmix64 over 8-byte words), so a
// run can check every restart against the first without holding a copy.
std::uint64_t digest(const Field& f) {
  const std::byte* p = f.bytes().data();
  const std::size_t n = f.size_bytes();
  std::uint64_t h = n;
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, std::min<std::size_t>(8, n - i));
    h ^= w;
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

bool agree(double a, double b, double rel) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

// Calls fn(array_offset, box_offset, run) for each contiguous run of
// elements of `region` inside a row-major array shaped `dims`.
template <typename F>
void for_each_box_row(const std::vector<std::size_t>& dims,
                      const Region& region, F&& fn) {
  const std::size_t nd = dims.size();
  std::vector<std::size_t> stride(nd, 1);
  for (std::size_t d = nd - 1; d-- > 0;) stride[d] = stride[d + 1] * dims[d + 1];
  const std::size_t run = region.shape[nd - 1];
  std::vector<std::size_t> idx(nd, 0);  // odometer over the outer dims
  for (std::size_t box = 0;; box += run) {
    std::size_t off = region.start[nd - 1];
    for (std::size_t d = 0; d + 1 < nd; ++d)
      off += (region.start[d] + idx[d]) * stride[d];
    fn(off, box, run);
    std::size_t d = nd - 1;
    while (d-- > 0) {
      if (++idx[d] < region.shape[d]) break;
      idx[d] = 0;
    }
    if (d == static_cast<std::size_t>(-1)) return;
  }
}

// Copies `region` out of `src`: the box a query must return, cut without
// the library's zone or scatter code.
Field cut_box(const Field& src, const Region& region) {
  const Shape shape{std::span<const std::size_t>(region.shape)};
  return src.visit([&](const auto& arr) {
    using T = std::remove_cvref_t<decltype(arr.data()[0])>;
    NdArray<T> out(shape);
    for_each_box_row(arr.shape().dims_vector(), region,
                     [&](std::size_t off, std::size_t box, std::size_t run) {
                       std::memcpy(out.data() + box, arr.data() + off,
                                   run * sizeof(T));
                     });
    return Field(src.name(), std::move(out));
  });
}

// Compares a query result with the same box of `restart` (bytes) and of
// `original` (bound and squared error) in place, so the check allocates
// nothing and leaves the program's allocator as the program left it.
template <typename T>
ErrorSum compare_box(const T* original, const T* restart,
                     const std::vector<std::size_t>& dims, const Region& region,
                     const T* result, double bound, bool* same) {
  ErrorSum e;
  for_each_box_row(dims, region,
                   [&](std::size_t off, std::size_t box, std::size_t run) {
                     *same = *same && std::memcmp(restart + off, result + box,
                                                  run * sizeof(T)) == 0;
                     e.add(error_sum(original + off, result + box, run, bound));
                   });
  return e;
}

// --- host stamp and resource counters ---------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

struct Usage {
  double cpu_s = 0.0;
  long minflt = 0;
  long maxrss_kib = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.minflt = ru.ru_minflt;
  u.maxrss_kib = ru.ru_maxrss;
  return u;
}

// --- the closed-loop client ---------------------------------------------------

// The k-th query box of every round: whole rows of the field (dim 0 cut,
// the other dimensions full), and the dim-0 starts at which it reads the
// zones fixed for it.
struct QueryShape {
  std::vector<std::size_t> extents;
  std::vector<std::size_t> starts;
};

// The round's box shapes, fixed per workload. Box k takes ladder step k
// rows and lies in as few zones as a box of that many rows can; which ones
// is drawn from a stream seeded by the workload. So every run decodes the
// same zones and makes the program allocate the same sequence of output
// sizes; only where each box sits inside its zones comes from the run's
// seed. With box sizes drawn from the seed, the queries of
// serial-dump-restart faulted 65k or 250k pages a round, as the allocator's
// history differed, and with seeded positions a small box crossed a zone
// boundary or not by chance, which could move p50 between zone counts.
std::vector<QueryShape> query_shapes(const Workload& w) {
  const auto zones = zone_extents(w.dims[0], StreamConfig{}.slabs);
  const auto zone_of = [&](std::size_t row) {
    std::size_t z = 0;
    while (row >= zones[z].row_start + zones[z].rows) ++z;
    return z;
  };
  const std::size_t hi = std::max<std::size_t>(1, w.dims[0] / 4);
  Rng rng(w.field_seed);
  std::vector<QueryShape> out;
  for (int k = 0; k < kQueriesPerRound; ++k) {
    const double step = static_cast<double>(k) / (kQueriesPerRound - 1);
    const auto rows = static_cast<std::size_t>(
        std::lround(std::pow(static_cast<double>(hi), step)));
    // Starts at which the box touches the fewest zones, by first zone.
    std::map<std::size_t, std::vector<std::size_t>> starts;
    std::size_t fewest = zones.size();
    for (std::size_t s = 0; s + rows <= w.dims[0]; ++s) {
      const std::size_t first = zone_of(s);
      const std::size_t touched = zone_of(s + rows - 1) - first + 1;
      if (touched < fewest) starts.clear();
      fewest = std::min(fewest, touched);
      if (touched == fewest) starts[first].push_back(s);
    }
    auto group = starts.begin();
    std::advance(group, rng.next_u64() % starts.size());
    QueryShape q;
    q.extents = w.dims;
    q.extents[0] = rows;
    q.starts = group->second;
    out.push_back(std::move(q));
  }
  return out;
}

// Per-query latency plus the record the library returned.
struct QueryResult {
  Region region;
  double seconds = 0.0;
  RegionReadRecord record;
};

class Client {
 public:
  Client(const Workload& w, std::uint64_t seed)
      : w_(w), shapes_(query_shapes(w)), start_rng_(seed ^ 0x5eedf00dULL) {
    cfg_.codec = w.codec;
    cfg_.error_bound = w.error_bound;
    cfg_.threads = w.parallel ? cores() : 1;
    cfg_.io_library = w.io_library;
  }

  const Workload& workload() const { return w_; }
  const PipelineConfig& config() const { return cfg_; }
  const StreamConfig& stream() const { return stream_; }
  PfsSimulator& pfs() { return pfs_; }
  const Field& field() const { return field_; }
  double bound() const { return bound_; }

  double generate(std::uint64_t seed) {
    const double s = timed([&] { field_ = make_field(w_, seed); });
    const Range r = own_range(field_);
    bound_ = w_.error_bound * (r.hi - r.lo);
    return s;
  }

  StreamWriteRecord dump(double* seconds) {
    const auto t0 = Clock::now();
    StreamWriteRecord rec =
        run_streamed_compress_write(field_, cfg_, pfs_, stream_);
    *seconds = seconds_since(t0);
    path_ = rec.path;
    return rec;
  }

  StreamReadRecord restart(double* seconds) {
    const auto t0 = Clock::now();
    StreamReadRecord rec = run_streamed_read(pfs_, path_, cfg_, stream_);
    *seconds = seconds_since(t0);
    return rec;
  }

  // The k-th query of a round: shape k, placed by the run's seed.
  Region next_region(int k) {
    const QueryShape& q = shapes_[static_cast<std::size_t>(k)];
    Region r;
    r.shape = q.extents;
    r.start.assign(r.shape.size(), 0);
    r.start[0] = q.starts[start_rng_.next_u64() % q.starts.size()];
    return r;
  }

  QueryResult query(const Region& region) {
    QueryResult q;
    q.region = region;
    const auto t0 = Clock::now();
    q.record = run_streamed_read_region(pfs_, path_, region, cfg_, stream_);
    q.seconds = seconds_since(t0);
    return q;
  }

 private:
  Workload w_;
  std::vector<QueryShape> shapes_;
  Rng start_rng_;
  PipelineConfig cfg_;
  StreamConfig stream_;
  PfsSimulator pfs_;
  Field field_;
  double bound_ = 0.0;
  std::string path_;
};

// Verdicts of the output checks; a failed check names itself once.
class Checks {
 public:
  // A quiet instance only counts (the self-test expects its failures).
  explicit Checks(bool quiet = false) : quiet_(quiet) {}
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    if (!quiet_ && failures_ < 8)
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  bool ok() const { return failures_ == 0; }

 private:
  bool quiet_;
  int failures_ = 0;
};

// Checks one restart: every element within the bound (own loop), and the
// same bits as the first restart of the run (`reference` is its digest).
ErrorSum check_restart(const Client& c, const Field& recon,
                       const std::uint64_t* reference, Checks& checks) {
  const ErrorSum e = error_sum(c.field(), recon, c.bound());
  checks.expect(e.violations == 0 && e.n == c.field().num_elements(),
                "restart violates |x - x^| <= eb*(max-min) at " +
                    std::to_string(e.violations) + " elements");
  if (reference)
    checks.expect(digest(recon) == *reference,
                  "restart differs from the run's first restart");
  return e;
}

// Checks one query: bit-identical to the same box cut from a full restart
// of the container, and within the bound against the original box. With
// `psnr_check`, also compares this box's PSNR with compute_error_stats.
ErrorSum check_query(const Client& c, const QueryResult& q,
                     const Field& restart, Checks& checks, bool psnr_check) {
  const Field& result = q.record.field;
  const Field& original = c.field();
  bool same = result.dtype() == original.dtype() &&
              result.shape().dims_vector() == q.region.shape;
  ErrorSum e;
  e.violations = same ? 0 : 1;
  if (same) {
    const auto dims = original.shape().dims_vector();
    if (original.dtype() == DType::kFloat32)
      e = compare_box(original.as<float>().data(), restart.as<float>().data(),
                      dims, q.region, result.as<float>().data(), c.bound(),
                      &same);
    else
      e = compare_box(original.as<double>().data(),
                      restart.as<double>().data(), dims, q.region,
                      result.as<double>().data(), c.bound(), &same);
  }
  checks.expect(same, "query box differs from the box cut from the full restart");
  checks.expect(e.violations == 0, "query box violates the error bound");
  if (psnr_check)
    checks.expect(
        agree(e.psnr_db(),
              compute_error_stats(cut_box(original, q.region), result).psnr_db,
              1e-9),
        "query PSNR disagrees with compute_error_stats");
  return e;
}

// --- one round -------------------------------------------------------------------

struct RoundTimes {
  // Samples of the calls that returned; a failed call leaves none.
  std::vector<double> dump_s, restart_s, query_s, ratio;
  ErrorSum restart_err;
  int failed = 0;  // operations of the round that threw or were not reached
  Field last_restart;
  QueryResult last_query;
};

// Runs one closed-loop round and checks every output after its call.
// `reference` digests the run's first restart (null on the first round).
// A public call that throws counts as failed, and so does every call of
// the round after it, since they need its output.
RoundTimes run_round(Client& c, const std::uint64_t* reference, Checks& checks,
                     bool psnr_check) {
  RoundTimes r;
  std::vector<Region> regions;
  for (int k = 0; k < kQueriesPerRound; ++k) regions.push_back(c.next_region(k));
  int returned = 0;
  try {
    double s = 0.0;
    const StreamWriteRecord w = c.dump(&s);
    ++returned;
    r.dump_s.push_back(s);
    const std::size_t container = c.pfs().file_size(w.path);
    checks.expect(container > 0, "dump left an empty container");
    r.ratio.push_back(static_cast<double>(c.field().size_bytes()) /
                      static_cast<double>(container));

    StreamReadRecord rd = c.restart(&s);
    ++returned;
    r.restart_s.push_back(s);
    r.restart_err = check_restart(c, rd.field, reference, checks);
    if (psnr_check)
      checks.expect(agree(r.restart_err.psnr_db(),
                          compute_error_stats(c.field(), rd.field).psnr_db,
                          1e-9),
                    "restart PSNR disagrees with compute_error_stats");

    for (const Region& region : regions) {
      QueryResult q = c.query(region);
      ++returned;
      r.query_s.push_back(q.seconds);
      check_query(c, q, rd.field, checks, psnr_check);
      if (returned == kOpsPerRound) r.last_query = std::move(q);
    }
    r.last_restart = std::move(rd.field);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "operation %d of a round failed: %s\n", returned + 1,
                 e.what());
    r.failed = kOpsPerRound - returned;
  }
  return r;
}

// Negative controls: the checks above must catch a value pushed 2*eb*range
// away and a flipped byte in a query result.
template <typename T>
void push_away(const T* x, T* y, std::size_t i, double shift) {
  y[i] = static_cast<T>(y[i] + (x[i] >= y[i] ? -shift : shift));
}

// Spoils the last round's outputs in place.
bool self_test(const Client& c, RoundTimes& last) {
  Field& f = last.last_query.record.field;
  auto* bytes = f.dtype() == DType::kFloat32
                    ? reinterpret_cast<std::byte*>(f.as<float>().data())
                    : reinterpret_cast<std::byte*>(f.as<double>().data());
  bytes[f.size_bytes() / 2] ^= std::byte{0x01};
  Checks flip(true);
  check_query(c, last.last_query, last.last_restart, flip, false);

  Field& bad = last.last_restart;
  const std::size_t i = bad.num_elements() / 3;
  const double shift = 2.0 * c.bound();
  if (bad.dtype() == DType::kFloat32)
    push_away(c.field().as<float>().data(), bad.as<float>().data(), i, shift);
  else
    push_away(c.field().as<double>().data(), bad.as<double>().data(), i, shift);
  Checks perturbed(true);
  check_restart(c, bad, nullptr, perturbed);

  const bool ok = !perturbed.ok() && !flip.ok();
  std::printf("self-test: perturbed value %s, flipped byte %s\n",
              perturbed.ok() ? "MISSED" : "caught",
              flip.ok() ? "MISSED" : "caught");
  return ok;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

double host_alu_s(int reps) {
  double best = 1e9;
  for (int rep = 0; rep < reps; ++rep) {
    volatile std::uint64_t sink = 0;
    best = std::min(best, timed([&] {
                      std::uint64_t x = 88172645463325252ULL;
                      for (int i = 0; i < (1 << 27); ++i)
                        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                      sink = x;
                    }));
    (void)sink;
  }
  return best;
}

double host_stream_gbps() {
  std::vector<std::uint64_t> a(std::size_t{32} << 20, 1);  // 256 MiB
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    volatile std::uint64_t sink = 0;
    best = std::min(best, timed([&] {
                      std::uint64_t s = 0;
                      for (std::uint64_t v : a) s += v;
                      sink = s;
                    }));
    (void)sink;
  }
  return static_cast<double>(a.size() * sizeof(std::uint64_t)) / best / 1e9;
}

// The host reference: fixed work with the three kinds of cost that make up
// the program's calls, a dependent integer chain, page faults on freshly
// mapped memory and copies through memory already mapped. It runs between
// rounds. The memory is mapped here directly, so the program's allocator
// neither serves it nor sees it.
// kReferenceSeconds is its median time on the host the README describes.
constexpr double kReferenceSeconds = 0.035;

double host_reference_s() {
  constexpr std::size_t kBytes = std::size_t{32} << 20;
  return timed([] {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < (1 << 23); ++i)
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    sink = x;
    (void)sink;
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("reference mmap failed");
    auto* b = static_cast<std::byte*>(p);
    std::memset(b, 1, kBytes);
    for (int i = 0; i < 2; ++i) std::memcpy(b + kBytes / 2, b, kBytes / 2);
    munmap(p, kBytes);
  });
}

// --- end-to-end run ------------------------------------------------------------

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Client c(w, seed);
  Checks checks;
  c.generate(seed);
  // Untimed warm-up round: writes the container the first queries read,
  // starts the executor's workers and fills the buffer pool.
  RoundTimes warm = run_round(c, nullptr, checks, true);
  if (warm.failed) throw std::runtime_error("the warm-up round failed");
  const std::uint64_t reference = digest(warm.last_restart);
  warm = RoundTimes{};
  const double setup_s = seconds_since(g_process_start);

  // The host reference runs before the first round and after each one. A
  // round's times, divided by the mean of the references on its two sides
  // and multiplied by kReferenceSeconds, are its times at the reference
  // speed: the gated times. A host that runs slower for a while, as other
  // tenants load it, stretches the program's calls and the reference alike.
  RoundTimes all;     // samples of every timed round, as measured
  RoundTimes scaled;  // the same samples at the reference speed
  RoundTimes last;    // the last round whose calls all returned
  std::vector<double> host{host_reference_s()};
  long rounds = 0;
  const auto t0 = Clock::now();
  do {
    RoundTimes r = run_round(c, &reference, checks, false);
    host.push_back(host_reference_s());
    const double speed =
        kReferenceSeconds / (0.5 * (host[host.size() - 2] + host.back()));
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from, double scale) {
      for (const double x : from) to.push_back(x * scale);
    };
    append(all.dump_s, r.dump_s, 1.0);
    append(all.restart_s, r.restart_s, 1.0);
    append(all.query_s, r.query_s, 1.0);
    append(scaled.dump_s, r.dump_s, speed);
    append(scaled.restart_s, r.restart_s, speed);
    append(scaled.query_s, r.query_s, speed);
    append(all.ratio, r.ratio, 1.0);
    all.restart_err.add(r.restart_err);
    all.failed += r.failed;
    if (!r.failed) {
      last = RoundTimes{};  // frees the previous round's restart first
      last = std::move(r);
    }
    ++rounds;
  } while (seconds_since(t0) < seconds);
  const double measured_s = seconds_since(t0);
  const double rss_mib = static_cast<double>(usage().maxrss_kib) / 1024.0;
  if (all.dump_s.empty() || all.restart_s.empty() || all.query_s.empty() ||
      last.last_restart.num_elements() == 0)
    throw std::runtime_error("no round of the run completed");
  const bool self_ok = self_test(c, last);

  const double psnr = all.restart_err.psnr_db();
  const long attempted = rounds * kOpsPerRound;

  std::printf("workload %s seed %llu: %ld rounds (%ld ops, %d failed) in "
              "%.2f s, setup %.3f s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), rounds,
              attempted, all.failed, measured_s, setup_s);
  std::printf(" as measured:\n");
  print_samples("dump_s", all.dump_s, 1.0, "s");
  print_samples("restart_s", all.restart_s, 1.0, "s");
  print_samples("query_ms", all.query_s, 1e3, "ms");
  if (!all.failed) {  // samples are in issue order, so box k = i % 5
    std::printf("  query ms by box (median):");
    for (int k = 0; k < kQueriesPerRound; ++k) {
      std::vector<double> v;
      for (std::size_t i = k; i < all.query_s.size(); i += kQueriesPerRound)
        v.push_back(all.query_s[i]);
      std::printf(" %.1f", 1e3 * quantile(v, 0.5));
    }
    std::printf("\n");
  }
  // How fast the host ran: the reference's own spread is the drift that
  // the scaling takes out of the gated times.
  print_samples("reference_s", host, 1.0, "s");
  std::printf(" at the reference speed (%.3f s), as gated:\n",
              kReferenceSeconds);
  print_samples("dump_s", scaled.dump_s, 1.0, "s");
  print_samples("restart_s", scaled.restart_s, 1.0, "s");
  print_samples("query_ms", scaled.query_s, 1e3, "ms");
  std::printf("  ratio %.4f  psnr %.4f dB  peak rss %.1f MiB\n",
              quantile(all.ratio, 0.5), psnr, rss_mib);

  print_result(checks.ok() && self_ok, attempted, all.failed,
               {{"setup_s", setup_s, "s"},
                {"dump_s", quantile(scaled.dump_s, 0.5), "s"},
                {"restart_s", quantile(scaled.restart_s, 0.5), "s"},
                {"query_p50_ms", 1e3 * quantile(scaled.query_s, 0.5), "ms"},
                {"query_p90_ms", 1e3 * quantile(scaled.query_s, 0.9), "ms"},
                {"compression_ratio", quantile(all.ratio, 0.5), "x"},
                {"psnr_db", psnr, "dB"},
                {"peak_rss_mib", rss_mib, "MiB"}});
  return 0;
}

// --- traced run -------------------------------------------------------------------

enum Lane { kCore, kData, kCompressors, kCodec, kIo, kHost, kLanes };
const char* const kLaneNames[kLanes] = {"core",  "data", "compressors",
                                        "codec", "io",   "host"};

// Spans recorded from this file around calls into each layer, kept in
// memory and written as Chrome trace-event JSON at the end.
class Tracer {
 public:
  struct Span {
    std::string name, op;
    Lane lane;
    double t0_us, dur_us;
  };

  template <typename F>
  auto span(const std::string& metric, Lane lane, const std::string& name,
            F&& f) {
    const auto t0 = Clock::now();
    struct Stop {
      Tracer* t;
      const std::string& metric;
      Lane lane;
      const std::string& name;
      Clock::time_point t0;
      ~Stop() {
        const double s = seconds_since(t0);
        t->totals_[metric] += s;
        t->spans_.push_back(
            {name, t->op_, lane,
             std::chrono::duration<double, std::micro>(t0 - g_process_start)
                 .count(),
             s * 1e6});
      }
    } stop{this, metric, lane, name, t0};
    return f();
  }

  void set_op(std::string op) { op_ = std::move(op); }
  double total(const std::string& metric) const {
    auto it = totals_.find(metric);
    return it == totals_.end() ? 0.0 : it->second;
  }

  void write(const std::string& path,
             const std::map<std::string, std::string>& host) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (int l = 0; l < kLanes; ++l)
      out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
          << l << ", \"args\": {\"name\": \"" << kLaneNames[l] << "\"}},\n";
    out.precision(12);
    for (const Span& s : spans_)
      out << "{\"name\": \"" << s.name << "\", \"cat\": \""
          << kLaneNames[s.lane] << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << s.lane << ", \"ts\": " << s.t0_us << ", \"dur\": " << s.dur_us
          << ", \"args\": {\"op\": \"" << s.op << "\"}},\n";
    out << "{\"name\": \"end\", \"ph\": \"i\", \"s\": \"g\", \"pid\": 1, "
           "\"tid\": 0, \"ts\": "
        << std::chrono::duration<double, std::micro>(Clock::now() -
                                                     g_process_start)
               .count()
        << "}\n], \"displayTimeUnit\": \"ms\", \"otherData\": {";
    bool first = true;
    for (const auto& [k, v] : host) {
      out << (first ? "" : ", ") << '"' << k << "\": \"" << v << '"';
      first = false;
    }
    out << "}}\n";
  }

 private:
  std::map<std::string, double> totals_;
  std::vector<Span> spans_;
  std::string op_;
};

// The SZ3 payload inside a single-layout blob (header, layout tag, size,
// payload), or an empty span for any other layout.
std::span<const std::byte> single_payload(std::span<const std::byte> blob) {
  ByteReader r(blob);
  BlobHeader::decode(r);
  if (r.read_pod<std::uint8_t>() != kLayoutSingle) return {};
  const auto size = r.read_pod<std::uint64_t>();
  return r.read_bytes(size);
}

struct TracedDump {
  std::string path;
  std::vector<BlobHeader> interp_headers;  // per slab, for the SZ3 stages
};

// Re-runs run_streamed_compress_write's steps one layer at a time and writes
// the container to `path`. For SZ3, each slab also runs through the codec's
// two stages, whose payload must equal the one inside the codec's blob.
TracedDump traced_dump(Client& c, Tracer& tr, const std::string& path,
                       Checks& checks) {
  const Field& field = c.field();
  const PipelineConfig& cfg = c.config();
  Compressor& comp = compressor(cfg.codec);
  IoTool& tool = io_tool(cfg.io_library);
  const int nslabs = c.stream().slabs;

  const auto slabs = tr.span("compressors.split_s", kCompressors,
                             "split_slabs", [&] { return split_slabs(field, nslabs); });
  const auto zones = zone_extents(field.shape().dim(0), nslabs);
  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  opt.error_bound = cfg.error_bound;
  opt.threads = cfg.threads;
  const double abs_bound =
      tr.span("compressors.bound_scan_s", kCompressors, "absolute_bound_for",
              [&] { return absolute_bound_for(field, opt); });
  CompressOptions slab_opt = opt;
  slab_opt.mode = BoundMode::kAbsolute;
  slab_opt.error_bound = abs_bound;

  TracedDump out;
  out.path = path;
  std::vector<Bytes> blobs;
  for (const Field& slab : slabs) {
    blobs.push_back(tr.span("compressors.compress_s", kCompressors,
                            comp.name() + " compress",
                            [&] { return comp.compress(slab, slab_opt); }));
    if (comp.name() != "SZ3") continue;
    const InterpConfig icfg;
    const InterpEncoding enc =
        tr.span("compressors.interp_predict_s", kCompressors,
                "interp_compress",
                [&] { return interp_compress(slab, abs_bound, icfg); });
    const Bytes payload =
        tr.span("codec.interp_encode_s", kCodec, "interp_payload_encode",
                [&] { return interp_payload_encode(icfg, enc); });
    const auto in_blob = single_payload(blobs.back());
    checks.expect(in_blob.size() == payload.size() &&
                      std::memcmp(in_blob.data(), payload.data(),
                                  payload.size()) == 0,
                  "SZ3 stage payload differs from the codec blob's");
    BlobHeader h;
    h.codec = "SZ3";
    h.dtype = slab.dtype();
    h.dims = slab.shape().dims_vector();
    h.abs_error_bound = abs_bound;
    out.interp_headers.push_back(h);
  }

  ChunkedDatasetMeta meta;
  meta.name = field.name();
  meta.dtype_code = 2;
  meta.dims = field.shape().dims_vector();
  meta.attributes["content"] = "eblc-compressed";
  meta.attributes["codec"] = comp.name();
  const std::string w = "io.container_write_s";
  auto writer = tr.span(w, kIo, "open_zoned",
                        [&] { return tool.open_zoned(c.pfs(), path, meta); });
  tr.span(w, kIo, "enable_transport", [&] {
    writer.enable_transport(c.stream().transport);
  });
  for (std::size_t i = 0; i < blobs.size(); ++i)
    tr.span(w, kIo, "append_zone",
            [&] { return writer.append_zone(blobs[i], zones[i]); });
  tr.span(w, kIo, "close", [&] { return writer.close(); });
  return out;
}

// Re-runs run_streamed_read's steps: reader open, prefetch/await per
// chunk, decode at the workload's threads (for SZ3 also through the codec's
// two stages, which must give the same field), merge.
Field traced_restart(Client& c, Tracer& tr, const TracedDump& dump,
                     Checks& checks) {
  IoTool& tool = io_tool(c.config().io_library);
  const std::string r = "io.container_read_s";
  auto reader = tr.span(r, kIo, "open_chunked_reader", [&] {
    return tool.open_chunked_reader(c.pfs(), dump.path);
  });
  reader.enable_transport(c.stream().transport);
  const std::size_t n = reader.index().chunks.size();
  std::vector<Field> slabs;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t h =
        tr.span(r, kIo, "prefetch_chunk", [&] { return reader.prefetch_chunk(i); });
    Bytes blob =
        tr.span(r, kIo, "await_chunk", [&] { return reader.await_chunk(h, i); });
    slabs.push_back(tr.span("compressors.decompress_s", kCompressors,
                            "decompress_any", [&] {
                              return decompress_any(blob, c.config().threads);
                            }));
    if (i < dump.interp_headers.size()) {
      const InterpPayload p =
          tr.span("codec.interp_decode_s", kCodec, "interp_payload_decode",
                  [&] { return interp_payload_decode(single_payload(blob)); });
      const Field stage = tr.span(
          "compressors.interp_reconstruct_s", kCompressors, "interp_decompress",
          [&] {
            return interp_decompress(dump.interp_headers[i], p.config, p.codes,
                                     p.anchors, p.unpred);
          });
      checks.expect(same_bytes(stage, slabs.back()),
                    "SZ3 stage reconstruction differs from decompress_any");
    }
    BufferPool::global().release(std::move(blob));
  }
  return tr.span("compressors.merge_s", kCompressors, "merge_slabs", [&] {
    return merge_slabs(slabs, reader.index().meta.dims,
                       reader.index().meta.name);
  });
}

// Re-runs run_streamed_read_region's steps for one box.
Field traced_query(Client& c, Tracer& tr, const std::string& path,
                   const Region& region, double* zones, double* bytes) {
  IoTool& tool = io_tool(c.config().io_library);
  auto reader = tr.span("io.reader_open_s", kIo, "open_chunked_reader", [&] {
    return tool.open_chunked_reader(c.pfs(), path);
  });
  auto fetched = tr.span("io.zone_fetch_s", kIo, "read_zones",
                         [&] { return reader.read_zones(region); });
  Field out;
  bool out_ready = false;
  for (auto& f : fetched) {
    *bytes += static_cast<double>(f.blob.size());
    const Field zone = tr.span("compressors.zone_decode_s", kCompressors,
                               "decompress_any",
                               [&] { return decompress_any(f.blob, 1); });
    *zones += 1;
    if (!out_ready) {
      out_ready = true;
      const Shape shape{std::span<const std::size_t>(region.shape)};
      out = zone.dtype() == DType::kFloat32
                ? Field(zone.name(), NdArray<float>(shape))
                : Field(zone.name(), NdArray<double>(shape));
    }
    tr.span("compressors.scatter_s", kCompressors, "scatter_zone_into_region",
            [&] {
              scatter_zone_into_region(
                  zone,
                  static_cast<std::size_t>(
                      reader.index().zones[f.zone].row_start),
                  region, out);
            });
    BufferPool::global().release(std::move(f.blob));
  }
  return out;
}

int run_traced(const Workload& w, std::uint64_t seed) {
  Client c(w, seed);
  Checks checks;
  Tracer tr;
  tr.set_op("setup");
  const double gen_s =
      tr.span("data.generate_s", kData, "generate " + w.dataset,
              [&] { return c.generate(seed); });
  RoundTimes warm = run_round(c, nullptr, checks, true);
  if (warm.failed) throw std::runtime_error("the warm-up round failed");
  const std::uint64_t reference = digest(warm.last_restart);
  warm = RoundTimes{};
  long attempted = kOpsPerRound;

  // One public round, with process, pool and executor deltas around it.
  tr.set_op("public round");
  const auto pool0 = BufferPool::global().stats();
  const auto ex0 = Executor::global().stats();
  const Usage u0 = usage();
  const auto t0 = Clock::now();
  double dump_s = 0.0, restart_s = 0.0;
  const StreamWriteRecord wrec = tr.span(
      "core.dump_s", kCore, "run_streamed_compress_write",
      [&] { return c.dump(&dump_s); });
  const Usage u1 = usage();
  StreamReadRecord rrec = tr.span("core.restart_s", kCore, "run_streamed_read",
                                  [&] { return c.restart(&restart_s); });
  const Usage u2 = usage();
  std::vector<QueryResult> queries;
  for (int k = 0; k < kQueriesPerRound; ++k) {
    const Region region = c.next_region(k);
    queries.push_back(tr.span("core.query_s", kCore, "run_streamed_read_region",
                              [&] { return c.query(region); }));
  }
  const double wall = seconds_since(t0);
  const Usage u3 = usage();
  const auto pool1 = BufferPool::global().stats();
  const auto ex1 = Executor::global().stats();
  attempted += kOpsPerRound;
  check_restart(c, rrec.field, &reference, checks);
  double query_unreported = 0.0, query_j = 0.0;
  for (const QueryResult& q : queries) {
    check_query(c, q, rrec.field, checks, false);
    query_unreported += q.seconds - q.record.host_wall_s;
    query_j += q.record.fetch_j + q.record.decompress_j;
  }
  const double nq = static_cast<double>(queries.size());

  // The same round, step by step through the layers' public functions.
  tr.set_op("traced dump");
  const TracedDump td = traced_dump(c, tr, wrec.path + ".traced", checks);
  const Bytes public_bytes = c.pfs().read_file(wrec.path);
  const Bytes traced_bytes = c.pfs().read_file(td.path);
  checks.expect(public_bytes == traced_bytes,
                "step-by-step container differs from run_streamed_compress_write's");
  const double bytes_written = static_cast<double>(traced_bytes.size());
  tr.set_op("traced restart");
  const Field traced_field = traced_restart(c, tr, td, checks);
  checks.expect(same_bytes(traced_field, rrec.field),
                "step-by-step restart differs from run_streamed_read's");
  tr.set_op("traced queries");
  double zones = 0.0, bytes_fetched = 0.0;
  for (const QueryResult& q : queries) {
    const Field f = traced_query(c, tr, td.path, q.region, &zones, &bytes_fetched);
    checks.expect(same_bytes(f, q.record.field),
                  "step-by-step query differs from run_streamed_read_region's");
  }
  attempted += kOpsPerRound;

  // Five-codec reference rows on the serial-dump-restart field (Fig. 5).
  tr.set_op("reference rows");
  std::vector<Metric> rows;
  {
    const Workload& s = workloads()[0];
    const bool same_field = w.name == s.name;
    Field generated;
    if (!same_field) generated = make_field(s, seed);
    const Field& nyx = same_field ? c.field() : generated;
    const Range range = own_range(nyx);
    const double bound = s.error_bound * (range.hi - range.lo);
    const double mb = static_cast<double>(nyx.size_bytes()) / 1e6;
    for (const std::string& name : eblc_names()) {
      Compressor& comp = compressor(name);
      CompressOptions opt;
      opt.error_bound = s.error_bound;
      Bytes blob;
      const double cs = tr.span("compressors." + name + ".compress", kCompressors,
                                name + " compress",
                                [&] { return timed([&] { blob = comp.compress(nyx, opt); }); });
      Field recon;
      const double ds = tr.span("compressors." + name + ".decompress", kCompressors,
                                name + " decompress",
                                [&] { return timed([&] { recon = comp.decompress(blob, 1); }); });
      checks.expect(error_sum(nyx, recon, bound).violations == 0,
                    name + " reference row violates the error bound");
      rows.push_back({"compressors." + name + ".compress_mbps", mb / cs, "MB/s"});
      rows.push_back({"compressors." + name + ".decompress_mbps", mb / ds, "MB/s"});
      attempted += 2;
    }
  }
  tr.set_op("host calibration");
  const double alu_s = tr.span("host.alu_s", kHost, "alu loop", [] { return host_alu_s(3); });
  const double stream_gbps =
      tr.span("host.stream", kHost, "stream loop", host_stream_gbps);

  const double nslabs = static_cast<double>(c.stream().slabs);
  const double acquires = static_cast<double>(pool1.acquires - pool0.acquires);
  std::vector<Metric> m = {
      {"compressors.interp_predict_s", tr.total("compressors.interp_predict_s"), "s"},
      {"compressors.interp_reconstruct_s", tr.total("compressors.interp_reconstruct_s"), "s"},
      {"codec.interp_encode_s", tr.total("codec.interp_encode_s"), "s"},
      {"codec.interp_decode_s", tr.total("codec.interp_decode_s"), "s"},
      {"compressors.bound_scan_s", tr.total("compressors.bound_scan_s"), "s"},
      {"compressors.split_s", tr.total("compressors.split_s"), "s"},
      {"compressors.merge_s", tr.total("compressors.merge_s"), "s"},
      {"process.minor_faults_dump", static_cast<double>(u1.minflt - u0.minflt), "count"},
      {"process.minor_faults_restart", static_cast<double>(u2.minflt - u1.minflt), "count"},
      {"process.minor_faults_query", static_cast<double>(u3.minflt - u2.minflt) / nq, "count"},
      {"common.pool_acquires", acquires, "count"},
      {"common.pool_hit_ratio",
       acquires > 0 ? static_cast<double>(pool1.hits - pool0.hits) / acquires : 0.0,
       "ratio"},
      {"compressors.compress_s", tr.total("compressors.compress_s") / nslabs, "s"},
      {"compressors.decompress_s", tr.total("compressors.decompress_s") / nslabs, "s"},
      {"parallel.tasks", static_cast<double>(ex1.tasks_completed - ex0.tasks_completed), "count"},
      {"parallel.steals", static_cast<double>(ex1.steals - ex0.steals), "count"},
      {"parallel.help_runs", static_cast<double>(ex1.help_runs - ex0.help_runs), "count"},
      {"parallel.cpu_per_wall", (u3.cpu_s - u0.cpu_s) / wall, "ratio"},
      {"io.container_write_s", tr.total("io.container_write_s"), "s"},
      {"io.container_read_s", tr.total("io.container_read_s"), "s"},
      {"io.bytes_written", bytes_written, "B"},
      {"io.sectors", static_cast<double>(wrec.transport.sectors + rrec.transport.sectors), "count"},
      {"io.credit_stalls",
       static_cast<double>(wrec.transport.credit_stalls + rrec.transport.credit_stalls), "count"},
      {"io.reader_open_s", tr.total("io.reader_open_s"), "s"},
      {"io.zone_fetch_s", tr.total("io.zone_fetch_s"), "s"},
      {"io.bytes_fetched", bytes_fetched, "B"},
      {"compressors.zone_decode_s", tr.total("compressors.zone_decode_s"), "s"},
      {"compressors.scatter_s", tr.total("compressors.scatter_s"), "s"},
      {"compressors.zones_decoded", zones, "count"},
      {"core.dump_unreported_s", dump_s - wrec.host_wall_s, "s"},
      {"core.restart_unreported_s", restart_s - rrec.host_wall_s, "s"},
      {"core.query_unreported_s", query_unreported / nq, "s"},
      {"energy.dump_j", wrec.compress_j + wrec.write_j, "J"},
      {"energy.restart_j", rrec.fetch_j + rrec.decompress_j, "J"},
      {"energy.query_j", query_j / nq, "J"},
      {"data.generate_s", gen_s, "s"},
  };
  m.insert(m.end(), rows.begin(), rows.end());
  m.push_back({"host.stream_gbps", stream_gbps, "GB/s"});
  m.push_back({"host.alu_s", alu_s, "s"});

  const std::map<std::string, std::string> host = {
      {"cores", std::to_string(cores())},
      {"cpu_model", cpu_model()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"workload", w.name},
      {"seed", std::to_string(seed)},
  };
  std::filesystem::create_directories(".bench_out");
  const std::string trace_path =
      ".bench_out/trace-" + w.name + "-" + std::to_string(seed) + ".json";
  tr.write(trace_path, host);

  std::printf("traced %s seed %llu on %d cores, %s, %s %s; trace %s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), cores(),
              cpu_model().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              trace_path.c_str());
  std::printf("  public round: dump %.4f s, restart %.4f s, %d queries\n",
              dump_s, restart_s, kQueriesPerRound);
  for (const Metric& x : m)
    std::printf("  %-36s %16.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  print_result(checks.ok(), attempted, 0, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto arg = [&](const char* k, const char* def) {
    auto it = args.find(k);
    return it == args.end() ? std::string(def) : it->second;
  };
  const std::string name = arg("--workload", "");
  const Workload* w = nullptr;
  for (const Workload& x : workloads())
    if (x.name == name) w = &x;
  if (!w) {
    std::fprintf(stderr, "unknown --workload '%s'; one of:", name.c_str());
    for (const Workload& x : workloads()) std::fprintf(stderr, " %s", x.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    const auto seed = std::stoull(arg("--seed", "1"));
    const double seconds = std::stod(arg("--seconds", "10"));
    if (arg("--trace", "0") == "1")
      return run_traced(*w, seed);
    return run_end_to_end(*w, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
