#include "sim/repro.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "gen/presets.hpp"
#include "obs/json.hpp"

namespace lra::sim {
namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::invalid_argument("repro JSON: " + what);
}

/// Tokenize one flat JSON object into key -> raw value (strings unquoted,
/// numbers kept verbatim). No nesting, no escapes, no arrays.
std::map<std::string, std::string> parse_flat_object(const std::string& s) {
  std::map<std::string, std::string> kv;
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  };
  auto expect = [&](char c) {
    skip_ws();
    if (i >= s.size() || s[i] != c)
      malformed(std::string("expected '") + c + "' at offset " +
                std::to_string(i));
    ++i;
  };
  auto parse_string = [&] {
    expect('"');
    const std::size_t start = i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') malformed("escape sequences are not supported");
      ++i;
    }
    if (i >= s.size()) malformed("unterminated string");
    return s.substr(start, i++ - start);
  };

  expect('{');
  skip_ws();
  if (i < s.size() && s[i] == '}') {
    ++i;
  } else {
    for (;;) {
      const std::string key = parse_string();
      expect(':');
      skip_ws();
      if (i >= s.size()) malformed("missing value for key " + key);
      std::string value;
      if (s[i] == '"') {
        value = parse_string();
      } else {
        const std::size_t start = i;
        while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                                s[i] == '+' || s[i] == '-' || s[i] == '.'))
          ++i;
        value = s.substr(start, i - start);
        if (value.empty()) malformed("empty value for key " + key);
      }
      if (!kv.emplace(key, value).second) malformed("duplicate key " + key);
      skip_ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    expect('}');
  }
  skip_ws();
  if (i != s.size()) malformed("trailing content after the object");
  return kv;
}

double to_double(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size()) malformed("non-numeric value for " + key);
  return x;
}

long long to_int(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (end != v.c_str() + v.size()) malformed("non-integer value for " + key);
  return x;
}

// An int field: rejected outside int range instead of narrowed, so that
// 2^32 + 1 cannot wrap to 1 and slip past validate().
int to_int32(const std::string& key, const std::string& v) {
  const long long x = to_int(key, v);
  if (x < std::numeric_limits<int>::min() ||
      x > std::numeric_limits<int>::max())
    malformed("value out of int range for " + key + ": " + v);
  return static_cast<int>(x);
}

std::uint64_t to_u64(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (end != v.c_str() + v.size()) malformed("non-integer value for " + key);
  return static_cast<std::uint64_t>(x);
}

}  // namespace

ApproxOptions approx_options(const ReproConfig& c) {
  ApproxOptions o;
  o.method = c.method;
  o.block_size = c.block_size;
  o.tau = c.tau;
  o.power = c.power;
  o.seed = c.solver_seed;
  o.max_rank = c.max_rank;
  return o;
}

CscMatrix build_matrix(const ReproConfig& c) {
  return make_preset(c.matrix, c.scale, c.matrix_seed).a;
}

std::string to_json(const ReproConfig& c) {
  obs::JsonObj o;
  o.field("matrix", c.matrix)
      .field("scale", c.scale)
      .field("matrix_seed", static_cast<long long>(c.matrix_seed))
      .field("method", to_string(c.method))
      .field("tau", c.tau)
      .field("block_size", static_cast<long long>(c.block_size))
      .field("power", c.power)
      .field("solver_seed", static_cast<long long>(c.solver_seed))
      .field("max_rank", static_cast<long long>(c.max_rank))
      .field("nranks", c.nranks)
      .field("alpha", c.cost.alpha)
      .field("beta", c.cost.beta)
      .field("comm_algo", to_string(c.cost.comm_algo))
      .field("faults", c.faults);
  return o.str();
}

ReproConfig repro_from_json(const std::string& json) {
  ReproConfig c;
  for (const auto& [key, v] : parse_flat_object(json)) {
    if (key == "matrix") {
      c.matrix = v;
    } else if (key == "scale") {
      c.scale = to_double(key, v);
    } else if (key == "matrix_seed") {
      c.matrix_seed = to_u64(key, v);
    } else if (key == "method") {
      c.method = method_from_string(v);
    } else if (key == "tau") {
      c.tau = to_double(key, v);
    } else if (key == "block_size") {
      c.block_size = static_cast<Index>(to_int(key, v));
    } else if (key == "power") {
      c.power = to_int32(key, v);
    } else if (key == "solver_seed") {
      c.solver_seed = to_u64(key, v);
    } else if (key == "max_rank") {
      c.max_rank = static_cast<Index>(to_int(key, v));
    } else if (key == "nranks") {
      c.nranks = to_int32(key, v);
    } else if (key == "alpha") {
      c.cost.alpha = to_double(key, v);
    } else if (key == "beta") {
      c.cost.beta = to_double(key, v);
    } else if (key == "comm_algo") {
      if (!parse_comm_algo(v, &c.cost.comm_algo))
        malformed("comm_algo must be tree|ring|auto, got \"" + v + "\"");
    } else if (key == "faults") {
      c.faults = v;
    } else {
      malformed("unknown key " + key);
    }
  }
  if (c.method == Method::kAuto)
    malformed("method must be explicit in a repro file, not \"auto\"");
  if (c.nranks < 1) malformed("nranks must be >= 1");
  if (const std::string err = validate(approx_options(c), c.nranks);
      !err.empty())
    malformed(err);
  if (!(c.scale > 0.0)) malformed("scale must be > 0");
  c.fault_plan();  // validate the spec eagerly (throws on a bad clause)
  return c;
}

ReproConfig load_repro_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open repro file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return repro_from_json(ss.str());
}

void save_repro_file(const std::string& path, const ReproConfig& c) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open repro file: " + path);
  f << to_json(c) << "\n";
}

}  // namespace lra::sim
