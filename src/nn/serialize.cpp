#include "varade/nn/serialize.hpp"

#include <cstdint>
#include <istream>
#include <ostream>

namespace varade::nn {

namespace {

constexpr char kMagic[4] = {'V', 'R', 'D', 'W'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  check(static_cast<bool>(in), "unexpected end of weight stream");
  return v;
}

}  // namespace

void save_weights(const std::vector<Parameter*>& params, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint64_t>(params.size()));
  for (const Parameter* p : params) {
    write_pod(out, static_cast<std::uint64_t>(p->name.size()));
    out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_pod(out, static_cast<std::uint64_t>(p->value.rank()));
    for (Index d : p->value.shape()) write_pod(out, static_cast<std::uint64_t>(d));
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  check(static_cast<bool>(out), "failed writing weight stream");
}

void load_weights(const std::vector<Parameter*>& params, std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  check(static_cast<bool>(in) && std::equal(magic, magic + 4, kMagic),
        "not a varade weight stream (bad magic)");
  const auto version = read_pod<std::uint32_t>(in);
  check(version == kVersion, "unsupported weight format version " + std::to_string(version));
  const auto count = read_pod<std::uint64_t>(in);
  check(count == params.size(), "weight stream has " + std::to_string(count) +
                                    " parameters, module expects " +
                                    std::to_string(params.size()));
  for (Parameter* p : params) {
    const auto name_len = read_pod<std::uint64_t>(in);
    check(name_len < (1U << 20), "implausible parameter name length");
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    check(static_cast<bool>(in), "unexpected end of weight stream");
    check(name == p->name,
          "parameter name mismatch: stream has '" + name + "', module expects '" + p->name + "'");
    const auto rank = read_pod<std::uint64_t>(in);
    check(rank <= 8, "implausible parameter rank");
    Shape shape(rank);
    for (auto& d : shape) d = static_cast<Index>(read_pod<std::uint64_t>(in));
    check(shape == p->value.shape(), "parameter shape mismatch for '" + name + "': stream " +
                                         shape_to_string(shape) + ", module " +
                                         shape_to_string(p->value.shape()));
    in.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
    check(static_cast<bool>(in), "unexpected end of weight stream");
  }
}

}  // namespace varade::nn
