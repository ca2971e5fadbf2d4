#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t SplitMix::Next() {
  uint64_t x = (state_ += 0x9E3779B97F4A7C15ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double SplitMix::NextUnit() {
  return (static_cast<double>(Next() >> 11) + 1.0) / 9007199254740992.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit of the measured double.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(metrics[i].name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += JsonEscape(metrics[i].unit);
    out += "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
