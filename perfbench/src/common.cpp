#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

void die(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FATAL: %s\n", message.c_str());
  std::exit(1);
}

double quantile(std::vector<float>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return static_cast<double>(values[rank - 1]);
}

double trimmed_mean(std::vector<float>& values, double cut) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const auto drop =
      std::min((n - 1) / 2, static_cast<std::size_t>(cut * static_cast<double>(n)));
  const double sum = std::accumulate(values.begin() + static_cast<std::ptrdiff_t>(drop),
                                     values.end() - static_cast<std::ptrdiff_t>(drop), 0.0);
  return sum / static_cast<double>(n - 2 * drop);
}

std::vector<int> usable_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_thread(pid_t tid, int cpu, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (const int c : cpus) CPU_SET(c, &set);
  }
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

void rotate_threads(pid_t first, std::size_t step, const std::vector<int>& cpus) {
  if (cpus.size() < 2) return;
  std::vector<pid_t> tids{first};
  if (DIR* dir = opendir("/proc/self/task")) {
    std::vector<pid_t> own;
    while (const dirent* e = readdir(dir))
      if (e->d_name[0] != '.') own.push_back(static_cast<pid_t>(std::atol(e->d_name)));
    closedir(dir);
    std::sort(own.begin(), own.end());
    tids.insert(tids.end(), own.begin(), own.end());
  }
  for (std::size_t i = 0; i < tids.size(); ++i)
    pin_thread(tids[i], cpus[(i + step) % cpus.size()], cpus);
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) die("metric " + name + " is not finite");
  entries_.push_back({name, value, unit});
}

std::string Report::json(bool correct, long attempted, long failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Report::print_table(const char* title) const {
  std::printf("%s\n", title);
  for (const Entry& e : entries_)
    std::printf("  %-40s %16.6g  %s\n", e.name.c_str(), e.value, e.unit.c_str());
}

Tracer::Tracer(bool enabled, std::size_t capacity) : enabled_(enabled), capacity_(capacity) {
  if (enabled_) spans_.reserve(capacity_);
}

int Tracer::open(const char* name, int parent, std::uint64_t id) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  return add(name, t, t, parent, id);
}

void Tracer::close(int span) {
  if (span >= 0) close_at(span, now_ns());
}

void Tracer::close_at(int span, std::int64_t end_ns) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = end_ns;
}

int Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns, int parent,
                std::uint64_t id) {
  if (!enabled_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,id\n");
  for (const Span& s : spans_)
    std::fprintf(f, "%s,%lld,%lld,%d,%llu\n", s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.id));
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
