#include "bench_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace pkgbench {

void Die(const std::string& message) {
  std::cerr << "pkgbench: " << message << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: pkgbench gen|run|reference|selftest [flags]");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("flag " + flag + " needs a value");
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data") {
      args.data_dir = value;
    } else if (flag == "--ref") {
      args.ref = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::Uniform(double lo, double hi) {
  double unit = static_cast<double>(Next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

uint64_t SplitMix::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  SplitMix mix(seed * 0x100000001B3ull + stream);
  return mix.Next();
}

LineClient::~LineClient() { Close(); }

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool LineClient::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool LineClient::SendLine(const std::string& line) {
  std::string data = line + "\n";
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool LineClient::ReadLine(std::string* line) {
  size_t newline;
  while ((newline = buffer_.find('\n')) == std::string::npos) {
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  *line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return true;
}

bool LineClient::Request(const std::string& request,
                         std::vector<std::string>* lines) {
  lines->clear();
  if (!SendLine(request)) return false;
  while (true) {
    std::string line;
    if (!ReadLine(&line)) return false;
    bool last = line.rfind("OK ", 0) == 0 || line.rfind("ERR ", 0) == 0;
    lines->push_back(std::move(line));
    if (last) return true;
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

double StatusFieldMiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::atof(line.c_str() + len) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace

double PeakRssMiB() { return StatusFieldMiB("VmHWM:"); }

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) os << ", ";
    first = false;
    double value = std::isfinite(metric.value) ? metric.value : 0.0;
    os << "\"" << name << "\": {\"value\": " << value << ", \"unit\": \""
       << metric.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void WriteFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Die("cannot write " + path);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> ReadLinesOrDie(const std::string& path) {
  std::istringstream in(ReadFileOrDie(path));
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace pkgbench
