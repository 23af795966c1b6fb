#include "util/fault_injection.h"

#include <cstdlib>

#include "util/hash.h"

namespace vm1::fault {

namespace {

const char* kSiteNames[kNumSites] = {
    "build_throw",     "lp_timeout",      "no_solution", "nan_objective",
    "apply_throw",     "worker_kill",     "reply_drop",  "reply_corrupt",
    "connect_timeout", "connect_refused", "partition",   "slow_loris",
};

using hash::splitmix_finalize;

Config& mutable_config() {
  static Config cfg = [] {
    const char* spec = std::getenv("VM1_FAULTS");
    return (spec && *spec) ? parse_spec(spec) : Config{};
  }();
  return cfg;
}

}  // namespace

const char* to_string(Site s) {
  int i = static_cast<int>(s);
  return (i >= 0 && i < kNumSites) ? kSiteNames[i] : "?";
}

Config parse_spec(const std::string& spec) {
  Config cfg;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("VM1_FAULTS: entry '" + entry +
                                  "' is not key=value");
    }
    std::string key = entry.substr(0, eq);
    std::string val = entry.substr(eq + 1);
    char* parse_end = nullptr;
    if (key == "seed") {
      cfg.seed = std::strtoull(val.c_str(), &parse_end, 0);
      if (!parse_end || *parse_end != '\0') {
        throw std::invalid_argument("VM1_FAULTS: bad seed '" + val + "'");
      }
      continue;
    }
    double rate = std::strtod(val.c_str(), &parse_end);
    if (!parse_end || *parse_end != '\0' || rate < 0 || rate > 1) {
      throw std::invalid_argument("VM1_FAULTS: rate for '" + key +
                                  "' must be a number in [0, 1], got '" +
                                  val + "'");
    }
    if (key == "rate") {
      for (double& r : cfg.rate) r = rate;
      continue;
    }
    bool known = false;
    for (int i = 0; i < kNumSites; ++i) {
      if (key == kSiteNames[i]) {
        cfg.rate[i] = rate;
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument("VM1_FAULTS: unknown key '" + key + "'");
    }
  }
  return cfg;
}

const Config& config() { return mutable_config(); }

void set_config(const Config& c) { mutable_config() = c; }

bool should_fire(Site s, std::uint64_t key) {
  const Config& cfg = config();
  double rate = cfg.rate[static_cast<int>(s)];
  if (rate <= 0) return false;
  if (rate >= 1) return true;
  std::uint64_t h = splitmix_finalize(
      splitmix_finalize(cfg.seed ^ splitmix_finalize(key)) +
      static_cast<std::uint64_t>(s));
  // Top 53 bits -> uniform double in [0, 1).
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return hash::splitmix_mix(h, v);
}

}  // namespace vm1::fault
