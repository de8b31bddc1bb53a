// Shared plumbing of the serving benchmark: the metric report printed as the
// final JSON line, exact-sample quantiles, CPU placement, and the in-memory
// span recorder of the traced run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds.
std::int64_t now_ns();

/// Exits with status 1 after printing `message` to stderr. The benchmark
/// never prints a result line after a failure.
[[noreturn]] void die(const std::string& message);

/// q-quantile (0 <= q <= 1) of `values`, nearest-rank on the sorted sample;
/// reorders `values`. Empty input yields 0.
double quantile(std::vector<float>& values, double q);

/// Mean of `values` without the lowest and the highest `cut` share of them
/// (at least one kept); reorders `values`. Empty input yields 0.
double trimmed_mean(std::vector<float>& values, double cut);

/// The CPUs this process may run on, in ascending order.
std::vector<int> usable_cpus();

/// Pins thread `tid` (0: the calling thread) to one CPU, or lets it run on
/// all of `cpus` again when `cpu` is negative. Failures are ignored: where
/// affinity cannot be set, threads stay where the scheduler puts them.
void pin_thread(pid_t tid, int cpu, const std::vector<int>& cpus);

/// Pins `first` (a single-threaded process or a thread), then every thread
/// of this process in thread-id order, each to its own CPU where there are
/// enough: thread i to cpus[(i + step) % cpus.size()]. The vCPUs of a shared
/// host run at speeds that differ and change over seconds (a busy neighbour
/// on the same physical core), so a thread that stays on one vCPU measures
/// that vCPU; moving every thread one CPU on per step samples them all alike.
void rotate_threads(pid_t first, std::size_t step, const std::vector<int>& cpus);

/// Metrics in insertion order, printed as one JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  std::string json(bool correct, long attempted, long failed) const;
  /// Human-readable "name value unit" lines (stdout, before the JSON line).
  void print_table(const char* title) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// One timed interval of the benchmark's own code around a call into a
/// layer. `parent` indexes the enclosing span (-1 for a root); `id` ties the
/// spans of one sample or chunk together (stream << 40 | sequence number).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t id;
};

inline std::uint64_t span_id(long stream, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(stream) << 40) | seq;
}

/// Spans kept in memory and written out once, when the run ends. A disabled
/// tracer records nothing and every call is a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t capacity = 250000);

  bool enabled() const { return enabled_; }
  /// Starts a span now; returns its index (-1 when disabled or full).
  int open(const char* name, int parent = -1, std::uint64_t id = 0);
  /// Ends span `span` now, or at `end_ns` (no-op for -1).
  void close(int span);
  void close_at(int span, std::int64_t end_ns);
  /// Records a span whose interval was measured elsewhere.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns, int parent = -1,
          std::uint64_t id = 0);

  std::size_t size() const { return spans_.size(); }
  long dropped() const { return dropped_; }
  /// Writes "name,start_ns,end_ns,parent,id" lines; returns false on I/O error.
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  long dropped_ = 0;
};

}  // namespace perfbench
