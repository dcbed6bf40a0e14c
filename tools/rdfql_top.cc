// rdfql_top — a `top`-style terminal dashboard over a running engine.
//
//   rdfql_top SNAPSHOT.json                 follow the file, redraw per tick
//   rdfql_top --once SNAPSHOT.json          render one frame and exit
//   rdfql_top --interval-ms=N ...           redraw period (default 500)
//   rdfql_top --frames=N ...                exit after N redraws (scripts)
//   rdfql_top --no-color ...                plain text, no ANSI escapes
//                                           (auto when stdout is not a tty)
//
// SNAPSHOT.json is the file a TelemetrySampler rewrites atomically every
// tick (`--telemetry-out=PATH` on rdfql_shell, or
// TelemetryOptions::snapshot_path in an embedding). rdfql_top only reads
// that file — it needs no connection to the engine process, works across
// restarts, and multiple instances can watch the same engine. Plain ANSI
// escapes, no terminal library.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/telemetry.h"
#include "util/string_util.h"

namespace {

std::string TimeString(uint64_t unix_ms) {
  std::time_t secs = static_cast<std::time_t>(unix_ms / 1000);
  std::tm tm_buf{};
  gmtime_r(&secs, &tm_buf);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%H:%M:%S", &tm_buf);
  return buf;
}

/// QPS-per-window sparkline: one ASCII character per retained window,
/// oldest on the left, scaled against the busiest window.
std::string Sparkline(const std::vector<rdfql::TelemetryWindow>& windows) {
  static const char kLevels[] = " .:-=+*#%@";
  double max_rate = 0;
  for (const rdfql::TelemetryWindow& w : windows) {
    if (w.seconds > 0) {
      max_rate = std::max(max_rate, static_cast<double>(w.queries) / w.seconds);
    }
  }
  std::string out;
  for (const rdfql::TelemetryWindow& w : windows) {
    double rate = w.seconds > 0 ? static_cast<double>(w.queries) / w.seconds : 0;
    size_t level =
        max_rate > 0
            ? static_cast<size_t>(rate / max_rate * (sizeof(kLevels) - 2))
            : 0;
    out.push_back(kLevels[level]);
  }
  return out;
}

std::string RenderFrame(const rdfql::TelemetrySnapshot& snap,
                        const std::string& path) {
  char line[512];
  std::string out;
  std::snprintf(line, sizeof(line),
                "rdfql_top — %s  %s UTC  tick %" PRIu64 " (every %" PRIu64
                "ms)%s%s\n",
                path.c_str(), TimeString(snap.unix_ms).c_str(), snap.ticks,
                snap.interval_ms, snap.build_sha.empty() ? "" : "  build ",
                snap.build_sha.c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "queries: %" PRIu64 " total, %.2f/s | rejected: %" PRIu64
                " (%.2f/s) | watchdog-cancelled: %" PRIu64 " | active: %lld\n",
                snap.queries_total, snap.qps, snap.rejected_total,
                snap.rejections_per_s, snap.watchdog_cancelled_total,
                static_cast<long long>(snap.queries_active));
  out += line;
  out += "eval latency (windowed): p50=" +
         rdfql::FormatNs(static_cast<uint64_t>(snap.eval_p50_ns)) +
         " p99=" + rdfql::FormatNs(static_cast<uint64_t>(snap.eval_p99_ns)) +
         "\n";
  if (!snap.windows.empty()) {
    out += "qps [" + Sparkline(snap.windows) + "]\n";
  }
  if (snap.has_alerts) {
    // Present only when the engine side runs an alert engine. Firing rules
    // first (they are why anyone is staring at this screen), then the rest.
    out += "\n" + snap.alerts.ToText();
  }
  if (!snap.hot_tags.empty()) {
    // Present only while the engine side runs a sampling profiler: a bar
    // per tag, scaled to the hottest, so the panel reads like `perf top`.
    out += "\nhot tags (profiler, self samples)\n";
    uint64_t max_self = 0;
    for (const rdfql::HotTag& t : snap.hot_tags) {
      max_self = std::max(max_self, t.self);
    }
    for (const rdfql::HotTag& t : snap.hot_tags) {
      int width = max_self > 0 ? static_cast<int>(t.self * 24 / max_self) : 0;
      std::snprintf(line, sizeof(line), "  %-28s %8" PRIu64 " %.*s\n",
                    t.tag.c_str(), t.self, width,
                    "========================");
      out += line;
    }
  }
  out += "\n";
  out += snap.inflight.ToText();
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  // ANSI clear/home only when a human is watching: piping into a file or a
  // test harness gets plain text frames without asking.
  bool color = isatty(fileno(stdout)) != 0;
  uint64_t interval_ms = 500;
  uint64_t frames = 0;  // 0 = forever
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--no-color") {
      color = false;
    } else if (arg.rfind("--interval-ms=", 0) == 0) {
      interval_ms = std::strtoull(arg.c_str() + 14, nullptr, 10);
    } else if (arg.rfind("--frames=", 0) == 0) {
      frames = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: rdfql_top [--once] [--no-color] [--interval-ms=N] "
                   "[--frames=N] SNAPSHOT.json\n");
      return 1;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: rdfql_top [--once] SNAPSHOT.json\n");
    return 1;
  }
  uint64_t rendered = 0;
  while (true) {
    std::string json;
    rdfql::TelemetrySnapshot snap;
    std::string error;
    if (!ReadFile(path, &json)) {
      if (once) {
        std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
        return 1;
      }
      // Live mode: the engine may not have ticked yet — keep waiting.
      std::fprintf(stdout, "waiting for %s ...\n", path.c_str());
    } else if (!rdfql::ParseTelemetrySnapshot(json, &snap, &error)) {
      if (once) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
        return 1;
      }
      std::fprintf(stdout, "unreadable snapshot (%s), retrying ...\n",
                   error.c_str());
    } else {
      // Clear + home, then the frame: flicker-free enough without curses.
      if (!once && color) std::fputs("\033[2J\033[H", stdout);
      std::fputs(RenderFrame(snap, path).c_str(), stdout);
      std::fflush(stdout);
      ++rendered;
    }
    if (once || (frames != 0 && rendered >= frames)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}
