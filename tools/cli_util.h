// Command-line front end shared by the tools (qosfarm, qoseval,
// qosreport): each tool declares its flags as one table of entries
// (flag, value syntax, one-line meaning, setter), one loop walks argv
// against it, and --help prints from the same entries.  Also here: the
// value parsers the setters use, and the flags qosfarm and qoseval
// share.  Header-only; tools/ is not part of the library, so this
// lives next to the mains.  docs/cli.md is the flag reference.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "farm/faults.h"
#include "obs/buildinfo.h"
#include "obs/slo.h"
#include "rt/types.h"
#include "sched/policy.h"

namespace qosctrl::cli {

// ----- Value parsers: false (and *out unspecified) on a bad value.

/// A base-10 integer that T holds and that lies in [lo, hi].  A value
/// out of either range is rejected, never clamped or wrapped.
template <typename T>
bool parse_integer(const char* s, T* out,
                   std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
                   std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  using Wide = std::conditional_t<std::is_signed_v<T>, long long,
                                  unsigned long long>;
  // strtoull would wrap a minus sign instead of refusing it.
  if (std::is_unsigned_v<T> && std::strchr(s, '-') != nullptr) return false;
  char* end = nullptr;
  errno = 0;
  Wide v = 0;
  if constexpr (std::is_signed_v<T>) {
    v = std::strtoll(s, &end, 10);
  } else {
    v = std::strtoull(s, &end, 10);
  }
  if (end == s || *end != '\0' || errno == ERANGE ||
      v < static_cast<Wide>(lo) || v > static_cast<Wide>(hi)) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// Any finite double (range checks are the caller's).  NaN and
/// infinities are rejected here, so no later report has to print one.
inline bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// A fraction in [0, 1].
inline bool parse_fraction(const char* s, double* out) {
  double v = 0.0;
  if (!parse_double(s, &v) || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

/// Splits "a,b,c" into items; empty input yields an empty vector.
inline std::vector<std::string> split_commas(const char* s) {
  std::vector<std::string> out;
  const std::string str(s);
  std::size_t pos = 0;
  while (pos < str.size()) {
    std::size_t comma = str.find(',', pos);
    if (comma == std::string::npos) comma = str.size();
    out.push_back(str.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// A non-empty comma list, each item read by `parse_item(item, &v)`.
template <typename T, typename ParseItem>
bool parse_list(const char* s, std::vector<T>* out, ParseItem parse_item) {
  out->clear();
  for (const std::string& item : split_commas(s)) {
    T v{};
    if (!parse_item(item.c_str(), &v)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

/// Comma-separated positive finite doubles.
inline bool parse_double_list(const char* s, std::vector<double>* out) {
  return parse_list(s, out, [](const char* item, double* v) {
    return parse_double(item, v) && *v > 0.0;
  });
}

/// "LO" or "LO:HI" frame counts with 1 <= LO <= HI (HI = LO when no
/// colon).
inline bool parse_frame_range(const char* s, int* lo, int* hi) {
  const char* colon = std::strchr(s, ':');
  if (colon == nullptr) {
    if (!parse_integer(s, lo)) return false;
    *hi = *lo;
  } else if (!parse_integer(std::string(s, colon).c_str(), lo) ||
             !parse_integer(colon + 1, hi)) {
    return false;
  }
  return *lo >= 1 && *hi >= *lo;
}

/// "P@T" (permanent) or "P@T+R" (transient, repairs after R > 0
/// cycles, at T + R, which must be a cycle count too).  The processor
/// is range-checked once --procs is known.
inline bool parse_failure(const char* s, farm::FailureEvent* ev) {
  const char* at = std::strchr(s, '@');
  if (!at || at == s) return false;
  if (!parse_integer(std::string(s, at).c_str(), &ev->processor, 0)) {
    return false;
  }
  ev->repair = 0;
  if (const char* plus = std::strchr(at + 1, '+')) {
    return parse_integer(std::string(at + 1, plus).c_str(), &ev->time, 0) &&
           parse_integer(plus + 1, &ev->repair, 1) &&
           ev->repair <= std::numeric_limits<rt::Cycles>::max() - ev->time;
  }
  return parse_integer(at + 1, &ev->time, 0);
}

// ----- The flag table.

/// Stores a flag's value (nullptr for a switch).  False rejects the
/// value; a setter may say why in *why.
using Setter = std::function<bool(const char* value, std::string* why)>;

struct Flag {
  const char* name;     ///< "--procs"
  const char* syntax;   ///< value placeholder ("N"); nullptr for a switch
  const char* meaning;  ///< its line of --help
  Setter set;
};
using Flags = std::vector<Flag>;

/// An integer in [lo, hi].
template <typename T>
Setter integer(T* out,
               std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
               std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  return [=](const char* v, std::string*) {
    return parse_integer(v, out, lo, hi);
  };
}

/// A value read by `parse(value, out)`: a name, a spec, a list.
template <typename T, typename Parse>
Setter parsed(T* out, Parse parse) {
  return [=](const char* v, std::string*) { return parse(v, out); };
}

/// A non-empty comma list of items read by `parse_item`.
template <typename T, typename ParseItem>
Setter list(std::vector<T>* out, ParseItem parse_item) {
  return [=](const char* v, std::string*) {
    return parse_list(v, out, parse_item);
  };
}

inline Setter fraction(double* out) { return parsed(out, parse_fraction); }

inline Setter text(const char** out) {
  return [=](const char* v, std::string*) {
    *out = v;
    return true;
  };
}

inline Setter on(bool* out) {
  return [=](const char*, std::string*) { return *out = true; };
}

/// Answers `arg` when it is --version (the build provenance) or --help
/// / -h (`print_help`): returns the exit status 0 then, else -1.
template <typename PrintHelp>
int answer_help_or_version(const char* tool, const std::string& arg,
                           PrintHelp print_help) {
  if (arg == "--version") {
    std::printf("%s\n", obs::version_line(tool).c_str());
  } else if (arg == "--help" || arg == "-h") {
    print_help();
  } else {
    return -1;
  }
  return 0;
}

/// One tool's command line, "<tool> <command> [flags]".
class Cli {
 public:
  /// `groups` are the table's entries in --help order.
  Cli(const char* tool, const char* command,
      std::initializer_list<Flags> groups)
      : tool_(tool), command_(command) {
    for (const Flags& g : groups) {
      flags_.insert(flags_.end(), g.begin(), g.end());
    }
  }

  /// Walks argv and runs each flag's setter.  Returns -1 when the tool
  /// should go on, else its exit status: 0 after --help or --version,
  /// 2 after a usage error (printed with the usage).
  int parse(int argc, char** argv) const {
    if (argc < 2) return fail("no command");
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (const int status =
              answer_help_or_version(tool_, arg, [&] { print_help(); });
          status >= 0) {
        return status;
      }
      if (i == 1) {
        if (arg != command_) return fail("unknown command %s", argv[i]);
        continue;
      }
      const auto flag =
          std::find_if(flags_.begin(), flags_.end(),
                       [&](const Flag& f) { return arg == f.name; });
      if (flag == flags_.end()) return fail("unknown option %s", argv[i]);
      const char* value = nullptr;
      if (flag->syntax != nullptr) {
        if (i + 1 == argc) {
          return fail("%s needs a value (%s)", flag->name, flag->syntax);
        }
        value = argv[++i];
      }
      std::string why;
      if (!flag->set(value, &why)) {
        return fail("bad %s '%s'%s%s", flag->name, value ? value : "",
                    why.empty() ? "" : ": ", why.c_str());
      }
    }
    return -1;
  }

  /// Prints "<tool>: <message>" and the usage to stderr; returns 2.
  [[gnu::format(printf, 2, 3)]] int fail(const char* format, ...) const {
    std::fprintf(stderr, "%s: ", tool_);
    va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
    std::fputc('\n', stderr);
    print_usage(stderr);
    return 2;
  }

 private:
  void print_usage(std::FILE* to) const {
    std::fprintf(to,
                 "usage: %s %s [options]\n"
                 "       %s --help | --version\n",
                 tool_, command_, tool_);
  }

  void print_help() const {
    print_usage(stdout);
    auto label = [](const Flag& f) {
      return f.syntax ? std::string(f.name) + ' ' + f.syntax : f.name;
    };
    std::size_t width = 0;
    for (const Flag& f : flags_) width = std::max(width, label(f).size());
    std::puts("\noptions:");
    for (const Flag& f : flags_) {
      std::printf("  %-*s  %s\n", static_cast<int>(width), label(f).c_str(),
                  f.meaning);
    }
  }

  const char* tool_;
  const char* command_;
  Flags flags_;
};

// ----- Flags qosfarm and qoseval share.

inline Flags fault_flags(farm::FaultSpec* f) {
  return {
      {"--overrun-prob", "F", "per-frame WCET-overrun probability",
       fraction(&f->overrun.probability)},
      {"--overrun-policy", "P", "abort, downgrade or quarantine",
       parsed(&f->overrun.policy, farm::parse_overrun_policy)},
      {"--loss-prob", "F", "per-frame loss probability",
       fraction(&f->loss.probability)},
      {"--fault-seed", "S", "root of the fault draws (default: farm seed)",
       integer(&f->seed)},
  };
}

inline Flags policy_flags(sched::PolicyParams* p) {
  return {
      {"--quantum", "C", "quantum policy's preemption spacing in cycles",
       integer(&p->quantum, 1)},
      {"--ctx-switch", "C", "context-switch cost in cycles",
       integer(&p->context_switch_cost, 0)},
  };
}

/// The windowed time series and the objectives scored over it.
inline Flags series_flags(rt::Cycles* window,
                          std::vector<obs::SloSpec>* slos) {
  return {
      {"--ts-window", "W", "time-series window in cycles (default off)",
       integer(window, 1)},
      {"--slo", "SPEC", "objective, e.g. 'miss_rate<=0.02' (repeatable)",
       [=](const char* v, std::string* why) {
         obs::SloSpec spec;
         if (!obs::parse_slo(v, &spec, why)) return false;
         slos->push_back(std::move(spec));
         return true;
       }},
  };
}

/// The needs-a-window check: windowed objectives read the series, and
/// only recovery_latency evaluates without it.  Returns the complaint,
/// or "" when every objective can be scored.
inline std::string slo_window_error(rt::Cycles window,
                                    const std::vector<obs::SloSpec>& slos) {
  for (const obs::SloSpec& spec : slos) {
    if (window == 0 && spec.metric != obs::SloMetric::kRecoveryLatency) {
      return "--slo '" + spec.text +
             "' needs --ts-window (only recovery_latency evaluates "
             "without the series)";
    }
  }
  return "";
}

/// Writes `content` (plus a trailing newline) to `path`; complains on
/// stderr as "<tool>: cannot write <path>" on failure.
inline bool write_file(const char* tool, const char* path,
                       const std::string& content) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path);
    return false;
  }
  f << content << '\n';
  return true;
}

}  // namespace qosctrl::cli
