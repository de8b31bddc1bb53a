// Binary weight serialization.
//
// Format (little-endian):
//   magic "VRDW" | u32 version | u64 param count |
//   per param: u64 name length | name bytes | u64 rank | u64 dims... | f32 data
//
// Both directions take a parameter list, such as Module::parameters().
// Loading restores weights into already-constructed parameters; names, order,
// and shapes must match, otherwise varade::Error is thrown.
#pragma once

#include <iosfwd>
#include <vector>

#include "varade/nn/module.hpp"

namespace varade::nn {

void save_weights(const std::vector<Parameter*>& params, std::ostream& out);

void load_weights(const std::vector<Parameter*>& params, std::istream& in);

}  // namespace varade::nn
