// nn::expf on every float: all 2^32 bit patterns through the dispatched
// scalar function and through each kernel table's mean_exp_rows kernel
// (one-element rows, so a row's mean is the element's exp), compared bit for
// bit with each other and with this host's libm. Each table's scalar expf is
// covered by test_nn_exp's sweep.
//
// stdout holds what does not depend on libm: whether every owned path
// agreed, and an FNV-1a hash of nn::expf over all floats in ascending bit
// order. `./ci.sh --numeric` diffs it against bench/expf.golden. stderr
// holds the libm comparison, for information: the mismatch count per owned
// path and the first mismatching inputs. glibc 2.36 on an FMA host computes
// the same function, so it should read 0; its SSE2 copy differs on two
// inputs.
//
//   ./build/bench/bench_expf_exhaustive > expf.txt   (~100 s on 4 threads)
//   GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA ./build/bench/bench_expf_exhaustive
//     (libm takes glibc's SSE2 expf; the owned paths call no libm function)
//
// Exits 1 if the owned paths disagree with each other.
#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "varade/nn/exp.hpp"
#include "varade/nn/layers.hpp"

namespace {

using namespace varade;

constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
constexpr std::size_t kMaxListed = 8;

struct Counts {
  // Index 0: nn::expf; then each table's kernel.
  std::vector<std::uint64_t> libm_mismatches;
  std::uint64_t owned_disagreements = 0;
  std::vector<std::uint32_t> libm_examples;  // inputs where nn::expf != libm
};

std::uint64_t fnv1a(const std::uint32_t* words, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i)
    for (int b = 0; b < 4; ++b) {
      h ^= (words[i] >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  return h;
}

/// Chunks [first, last): fills chunk_hash and adds to `counts`.
void run_range(std::uint64_t first, std::uint64_t last, Index tables,
               std::vector<std::uint64_t>& chunk_hash, Counts& counts) {
  std::vector<float> x(kChunk), y(kChunk);
  std::vector<std::uint32_t> owned(kChunk), libm(kChunk);
  for (std::uint64_t c = first; c < last; ++c) {
    for (std::uint64_t i = 0; i < kChunk; ++i)
      x[i] = std::bit_cast<float>(static_cast<std::uint32_t>(c * kChunk + i));
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      owned[i] = std::bit_cast<std::uint32_t>(nn::expf(x[i]));
      libm[i] = std::bit_cast<std::uint32_t>(std::exp(x[i]));
      if (owned[i] != libm[i]) {
        ++counts.libm_mismatches[0];
        if (counts.libm_examples.size() < kMaxListed)
          counts.libm_examples.push_back(std::bit_cast<std::uint32_t>(x[i]));
      }
    }
    chunk_hash[c] = fnv1a(owned.data(), kChunk);
    for (Index t = 0; t < tables; ++t) {
      nn::detail::mean_exp_rows(t, x.data(), static_cast<Index>(kChunk), 1, y.data());
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        const std::uint32_t kernel = std::bit_cast<std::uint32_t>(y[i]);
        counts.libm_mismatches[static_cast<std::size_t>(1 + t)] += kernel != libm[i];
        counts.owned_disagreements += kernel != owned[i];
      }
    }
  }
}

}  // namespace

int main() {
  const std::vector<std::string> tables = nn::detail::kernel_tables();
  const Index n_tables = static_cast<Index>(tables.size());
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);

  std::vector<std::uint64_t> chunk_hash(kChunks);
  std::vector<Counts> counts(threads);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < threads; ++w) {
    counts[w].libm_mismatches.assign(static_cast<std::size_t>(1 + n_tables), 0);
    pool.emplace_back(run_range, kChunks * w / threads, kChunks * (w + 1) / threads, n_tables,
                      std::ref(chunk_hash), std::ref(counts[w]));
  }
  for (std::thread& t : pool) t.join();

  Counts total;
  total.libm_mismatches.assign(static_cast<std::size_t>(1 + n_tables), 0);
  for (const Counts& c : counts) {
    for (std::size_t k = 0; k < c.libm_mismatches.size(); ++k)
      total.libm_mismatches[k] += c.libm_mismatches[k];
    total.owned_disagreements += c.owned_disagreements;
    for (std::uint32_t e : c.libm_examples)
      if (total.libm_examples.size() < kMaxListed) total.libm_examples.push_back(e);
  }
  // The hash of all floats: FNV-1a over the chunk hashes' low and high words
  // in chunk order, so it does not depend on the thread count.
  std::vector<std::uint32_t> words;
  for (const std::uint64_t h : chunk_hash) {
    words.push_back(static_cast<std::uint32_t>(h));
    words.push_back(static_cast<std::uint32_t>(h >> 32));
  }

  std::fprintf(stderr, "libm (std::exp) mismatches over 2^32 floats, for information:\n");
  std::fprintf(stderr, "  nn::expf (%s table): %" PRIu64 "\n", nn::conv1d_kernel_name(),
               total.libm_mismatches[0]);
  for (Index t = 0; t < n_tables; ++t) {
    const std::size_t k = static_cast<std::size_t>(t);
    std::fprintf(stderr, "  %s mean_exp_rows: %" PRIu64 "\n", tables[k].c_str(),
                 total.libm_mismatches[1 + k]);
  }
  for (const std::uint32_t e : total.libm_examples) {
    const float xv = std::bit_cast<float>(e);
    std::fprintf(stderr, "  x = %a (0x%08" PRIx32 "): nn::expf %a, libm %a\n",
                 static_cast<double>(xv), e, static_cast<double>(nn::expf(xv)),
                 static_cast<double>(std::exp(xv)));
  }

  std::printf("owned paths agree on every float: %s\n",
              total.owned_disagreements == 0 ? "yes" : "NO");
  std::printf("nn::expf hash over all 2^32 floats: %016" PRIx64 "\n",
              fnv1a(words.data(), words.size()));
  return total.owned_disagreements == 0 ? 0 : 1;
}
