#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace remapd {

namespace {

[[noreturn]] void bad_value(const std::string& name, const char* value,
                            const std::string& expected) {
  throw std::runtime_error(name + ": cannot parse '" + value + "' (" +
                           expected + ")");
}

}  // namespace

int env_int(const std::string& name, int def) {
  const char* v = std::getenv(name.c_str());
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max())
    bad_value(name, v, "expected an integer");
  return static_cast<int>(parsed);
}

std::size_t env_size(const std::string& name, std::size_t def) {
  const char* v = std::getenv(name.c_str());
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE)
    bad_value(name, v, "expected a non-negative integer");
  if (parsed < 0) bad_value(name, v, "must be non-negative");
  return static_cast<std::size_t>(parsed);
}

double env_double(const std::string& name, double def) {
  const char* v = std::getenv(name.c_str());
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE)
    bad_value(name, v, "expected a number");
  return parsed;
}

double env_double_nonneg(const std::string& name, double def) {
  const double parsed = env_double(name, def);
  if (parsed < 0.0) {
    const char* v = std::getenv(name.c_str());
    bad_value(name, v ? v : "", "must be non-negative");
  }
  return parsed;
}

std::string env_str(const std::string& name, const std::string& def) {
  const char* v = std::getenv(name.c_str());
  return v ? std::string(v) : def;
}

double knob_wmax_rms() { return env_double_nonneg("REMAPD_WMAX_RMS", 4.0); }

double knob_grad_pin() { return env_double_nonneg("REMAPD_GRAD_PIN", 12.0); }

std::size_t knob_refresh_every() {
  return env_size("REMAPD_REFRESH_EVERY", 1);
}

double knob_drop_fraction() {
  return env_double_nonneg("REMAPD_DROP_FRACTION", 0.05);
}

double knob_ancode_cap() {
  return env_double_nonneg("REMAPD_ANCODE_CAP", 0.001);
}

}  // namespace remapd
