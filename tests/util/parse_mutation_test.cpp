// Deterministic mutation harness for the parsers that read outside
// input: util::parse_json (qosreport reads reports back with it),
// obs::parse_slo (the --slo flag) and the CLI value parsers and integer
// setters of tools/cli_util.h.  Each seeded input is cut at every
// length, has single bits flipped, and gets bytes inserted, deleted
// and duplicated, one to four edits at a time.  Every mutant must
// parse or fail without crashing (the sanitizer build turns memory
// errors and undefined behaviour into failures), and every mutant that
// parses must re-serialize and parse back to the same value; a CLI
// value must also lie in its flag's range.
//
// The mutants are drawn from util::Rng with fixed seeds, so a failure
// reproduces exactly; the failing input is printed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "obs/slo.h"
#include "util/json.h"
#include "util/rng.h"

namespace qosctrl {
namespace {

using util::JsonKind;
using util::JsonValue;
using util::JsonWriter;
using util::Rng;

/// Bytes that steer the parsers into their branches, plus any byte.
char random_byte(Rng& rng) {
  static const std::string kSyntax =
      "{}[]\",:\\/ -+.0123456789eEtrufalsn\n\t<=@%*wWcMms_";
  const auto last = static_cast<std::int64_t>(kSyntax.size()) - 1;
  return rng.chance(0.7)
             ? kSyntax[static_cast<std::size_t>(rng.uniform_i64(0, last))]
             : static_cast<char>(rng.uniform_i64(0, 255));
}

/// One to four random edits of `s`: bit flip, insert, delete, or
/// duplicate a short span.
std::string mutate(const std::string& s, Rng& rng) {
  std::string m = s;
  const auto edits = rng.uniform_i64(1, 4);
  for (std::int64_t e = 0; e < edits; ++e) {
    const auto n = static_cast<std::int64_t>(m.size());
    const auto at = static_cast<std::size_t>(rng.uniform_i64(0, n));
    switch (rng.uniform_i64(0, 3)) {
      case 0:
        if (at < m.size()) {
          m[at] = static_cast<char>(m[at] ^ (1 << rng.uniform_i64(0, 7)));
        }
        break;
      case 1:
        m.insert(at, 1, random_byte(rng));
        break;
      case 2:
        if (at < m.size()) m.erase(at, 1);
        break;
      default: {
        const auto len = static_cast<std::size_t>(rng.uniform_i64(1, 8));
        m.insert(at, m.substr(at, len));
      }
    }
  }
  return m;
}

/// Every prefix of `seed` (itself included), then `count` random
/// mutants of it.
std::vector<std::string> mutants(const std::string& seed, int count,
                                 std::uint64_t rng_seed) {
  std::vector<std::string> out;
  for (std::size_t n = 0; n <= seed.size(); ++n) {
    out.push_back(seed.substr(0, n));
  }
  Rng rng(rng_seed);
  for (int i = 0; i < count; ++i) out.push_back(mutate(seed, rng));
  return out;
}

// ----- JSON.

bool has_null(const JsonValue& v) {
  if (v.is_null()) return true;
  if (v.is_array()) {
    for (const JsonValue& item : v.items()) {
      if (has_null(item)) return true;
    }
  }
  if (v.is_object()) {
    for (const auto& [key, member] : v.members()) {
      if (has_null(member)) return true;
    }
  }
  return false;
}

/// Writes a parsed value back (the writer has no null; callers skip
/// values holding one).
void write(const JsonValue& v, JsonWriter& w) {
  switch (v.kind()) {
    case JsonKind::kNull:
      break;
    case JsonKind::kBool:
      w.value(v.as_bool());
      break;
    case JsonKind::kNumber:
      w.value(v.as_number());
      break;
    case JsonKind::kString:
      w.value(v.as_string());
      break;
    case JsonKind::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items()) write(item, w);
      w.end_array();
      break;
    case JsonKind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        write(member, w);
      }
      w.end_object();
      break;
  }
}

bool same(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonKind::kNull:
      return true;
    case JsonKind::kBool:
      return a.as_bool() == b.as_bool();
    case JsonKind::kNumber:
      return a.as_number() == b.as_number();
    case JsonKind::kString:
      return a.as_string() == b.as_string();
    case JsonKind::kArray:
      if (a.items().size() != b.items().size()) return false;
      for (std::size_t i = 0; i < a.items().size(); ++i) {
        if (!same(a.items()[i], b.items()[i])) return false;
      }
      return true;
    case JsonKind::kObject:
      if (a.members().size() != b.members().size()) return false;
      for (std::size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].first != b.members()[i].first ||
            !same(a.members()[i].second, b.members()[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

std::vector<std::string> json_seeds() {
  // A report-shaped document through the writer: nesting, escapes,
  // UTF-8, integers, doubles near the edges.
  JsonWriter w;
  w.begin_object();
  w.field("version", "v1-\"quoted\"\\path\n\ttab\x01");
  w.field("utf8", "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  w.field("flag", true);
  w.field("count", 9007199254740992LL);
  w.field("negative", -42);
  w.field("psnr", 36.123456789012345);
  w.field("tiny", 4.9406564584124654e-324);
  w.field("huge", 1.7976931348623157e308);
  w.key("streams");
  w.begin_array();
  for (int i = 0; i < 3; ++i) {
    w.begin_object();
    w.field("id", i);
    w.field("mode", i == 0 ? "controlled" : "constant");
    w.field("admitted", i != 2);
    w.key("phase_cycles");
    w.begin_object();
    w.field("motion", 1000 * i);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("empty");
  w.begin_array();
  w.begin_object();
  w.end_object();
  w.end_array();
  w.end_object();
  return {
      w.take(),
      R"({"a":[1,-0,0.5,1e-7,-1.5E+3,123456789012345678],"b":{"c":null}})",
      R"(["\u00e9\ud83d\ude00\"\\\/\b\f\n\r\t",true,false,null,[],{}])",
      "  [ 1 , { \"k\" : \"v\" } ]\n",
  };
}

TEST(ParseMutationTest, JsonMutantsParseOrFailAndRoundTrip) {
  long long parsed = 0, round_tripped = 0;
  std::uint64_t rng_seed = 1;
  for (const std::string& seed : json_seeds()) {
    for (const std::string& text : mutants(seed, 3000, rng_seed++)) {
      JsonValue v;
      std::string error;
      if (!util::parse_json(text, &v, &error)) {
        EXPECT_FALSE(error.empty()) << text;
        continue;
      }
      ++parsed;
      if (has_null(v)) continue;
      JsonWriter w;
      write(v, w);
      const std::string again = w.take();
      JsonValue back;
      ASSERT_TRUE(util::parse_json(again, &back, &error))
          << error << "\nmutant: " << text << "\nrewritten: " << again;
      ASSERT_TRUE(same(v, back)) << "mutant: " << text;
      JsonWriter w2;
      write(back, w2);
      ASSERT_EQ(w2.take(), again) << "mutant: " << text;
      ++round_tripped;
    }
  }
  // The harness must exercise both outcomes, not only the error paths.
  EXPECT_GT(parsed, 500);
  EXPECT_GT(round_tripped, 300);
}

// ----- SLO specs.

/// A spec's canonical text: every field spelled out, numbers in the
/// JSON writer's round-tripping format.
std::string canonical(const obs::SloSpec& s) {
  std::string t = obs::slo_metric_name(s.metric);
  t += s.inclusive ? "<=" : "<";
  t += JsonWriter::number(s.threshold);
  if (s.threshold_in_windows) t += 'w';
  if (s.span > 0) t += '@' + std::to_string(s.span) + 'c';
  t += ':';
  t += obs::slo_scope_name(s.scope);
  t += '%' + JsonWriter::number(s.budget);
  return t;
}

bool same(const obs::SloSpec& a, const obs::SloSpec& b) {
  return a.metric == b.metric && a.inclusive == b.inclusive &&
         a.threshold == b.threshold &&
         a.threshold_in_windows == b.threshold_in_windows &&
         a.span == b.span && a.scope == b.scope && a.budget == b.budget;
}

TEST(ParseMutationTest, SloMutantsParseOrFailAndRoundTrip) {
  const std::vector<std::string> seeds = {
      "latency_p99<0.8*window@50ms",
      "miss_rate<=0.02:controlled%0.1",
      "queue_p99<16",
      "recovery_latency<10w",
      "conceal_rate<=0.01:feedback%1",
      "p95_latency<2w@4Mc",
      "latency_p50<400000@400000c%0.5:constant",
      // Spans at the edge of the cycle range, whose scaling to cycles
      // must not overflow.
      "latency_p99<1e3@99999999999999c",
      "latency_p99<1w@99999999999999ms",
      "queue_p99<4@9223372036854775807c",
  };
  long long parsed = 0;
  std::uint64_t rng_seed = 100;
  for (const std::string& seed : seeds) {
    for (const std::string& text : mutants(seed, 3000, rng_seed++)) {
      obs::SloSpec spec;
      std::string error;
      if (!obs::parse_slo(text, &spec, &error)) {
        EXPECT_FALSE(error.empty()) << text;
        continue;
      }
      ++parsed;
      EXPECT_EQ(spec.text, text);
      const std::string again = canonical(spec);
      obs::SloSpec back;
      ASSERT_TRUE(obs::parse_slo(again, &back, &error))
          << error << "\nmutant: " << text << "\nrewritten: " << again;
      ASSERT_TRUE(same(spec, back))
          << "mutant: " << text << "\nrewritten: " << again;
      ASSERT_EQ(canonical(back), again) << "mutant: " << text;
    }
  }
  EXPECT_GT(parsed, 1000);
}

// ----- CLI values.

/// Runs `parse(text, &value)` over the mutants of every seed.  An
/// accepted mutant must be `valid(text, value)`: in its flag's range
/// and, for integers, the very number the text spells.  Its `format`ted
/// text must parse back to a value that formats the same.  Returns the
/// number of accepted mutants.
template <typename T, typename Parse, typename Format, typename Valid>
long long check_cli_values(const std::vector<std::string>& seeds,
                           std::uint64_t rng_seed, Parse parse,
                           Format format, Valid valid) {
  long long accepted = 0;
  for (const std::string& seed : seeds) {
    for (const std::string& mutant : mutants(seed, 2000, rng_seed++)) {
      // What argv can carry: the bytes up to the first NUL.
      const std::string text = mutant.c_str();
      T v{};
      if (!parse(text.c_str(), &v)) continue;
      ++accepted;
      EXPECT_TRUE(valid(text, v))
          << "mutant: " << text << "\nread as: " << format(v);
      const std::string again = format(v);
      T back{};
      EXPECT_TRUE(parse(again.c_str(), &back))
          << "mutant: " << text << "\nrewritten: " << again;
      EXPECT_EQ(format(back), again) << "mutant: " << text;
    }
  }
  return accepted;
}

/// An accepted integer text as the number it spells: no leading
/// blanks, '+' or zeros, and "-0" is "0".  A value that does not print
/// as this was wrapped, narrowed or clamped.
std::string spelled(const std::string& t) {
  std::size_t i = t.find_first_not_of(" \t\n\v\f\r");
  if (i == std::string::npos) return t;
  bool negative = false;
  if (t[i] == '+' || t[i] == '-') negative = t[i++] == '-';
  i = std::min(t.find_first_not_of('0', i), t.size() - 1);
  const std::string digits = t.substr(i);
  return (negative && digits != "0" ? "-" : "") + digits;
}

template <typename T>
std::string join(const std::vector<T>& items, std::string (*format)(T)) {
  std::string out;
  for (const T& item : items) out += (out.empty() ? "" : ",") + format(item);
  return out;
}

std::string decimal(std::uint64_t v) { return std::to_string(v); }

TEST(ParseMutationTest, FailureSpecsParseInRangeAndRoundTrip) {
  auto format = [](const farm::FailureEvent& ev) {
    std::string t =
        std::to_string(ev.processor) + '@' + std::to_string(ev.time);
    if (!ev.permanent()) t += '+' + std::to_string(ev.repair);
    return t;
  };
  const auto accepted = check_cli_values<farm::FailureEvent>(
      {"1@20000000+15000000", "0@0", "3@9223372036854775807",
       "2147483647@1+9223372036854775807",
       "2147483647@1+9223372036854775806"},
      200, cli::parse_failure, format,
      [&](const std::string& text, const farm::FailureEvent& ev) {
        const std::size_t at = text.find('@');
        const std::size_t plus = text.find('+', at + 1);
        std::string t = spelled(text.substr(0, at)) + '@' +
                        spelled(text.substr(at + 1, plus - at - 1));
        if (plus != std::string::npos) {
          t += '+' + spelled(text.substr(plus + 1));
        }
        return ev.processor >= 0 && ev.time >= 0 && ev.repair >= 0 &&
               ev.repair <= INT64_MAX - ev.time && t == format(ev);
      });
  EXPECT_GT(accepted, 1000);
}

TEST(ParseMutationTest, FrameRangesParseInRangeAndRoundTrip) {
  using Range = std::pair<int, int>;
  auto format = [](const Range& r) {
    return std::to_string(r.first) + ':' + std::to_string(r.second);
  };
  const auto accepted = check_cli_values<Range>(
      {"8:24", "4", "1:2147483647"}, 300,
      [](const char* s, Range* r) {
        return cli::parse_frame_range(s, &r->first, &r->second);
      },
      format,
      [&](const std::string& text, const Range& r) {
        const std::size_t colon = text.find(':');
        const std::string lo = spelled(text.substr(0, colon));
        const std::string hi =
            colon == std::string::npos ? lo : spelled(text.substr(colon + 1));
        return r.first >= 1 && r.second >= r.first &&
               lo + ':' + hi == format(r);
      });
  EXPECT_GT(accepted, 500);
}

TEST(ParseMutationTest, CommaListsParseInRangeAndRoundTrip) {
  using Doubles = std::vector<double>;
  const auto doubles = check_cli_values<Doubles>(
      {"3,4,6", "1.5,2,3,4,6,8", "0.001,1e300,4.9e-324"}, 400,
      cli::parse_double_list,
      [](const Doubles& v) { return join(v, &JsonWriter::number); },
      [](const std::string&, const Doubles& v) {
        if (v.empty()) return false;
        for (const double d : v) {
          if (!(d > 0.0) || !std::isfinite(d)) return false;
        }
        return true;
      });
  EXPECT_GT(doubles, 1000);

  using Seeds = std::vector<std::uint64_t>;
  const auto seeds = check_cli_values<Seeds>(
      {"7,11,19", "18446744073709551615,0"}, 500,
      [](const char* s, Seeds* out) {
        return cli::parse_list(s, out, [](const char* item, auto* v) {
          return cli::parse_integer(item, v);
        });
      },
      [](const Seeds& v) { return join(v, &decimal); },
      [](const std::string& text, const Seeds& v) {
        std::string t;
        for (const std::string& item : cli::split_commas(text.c_str())) {
          t += (t.empty() ? "" : ",") + spelled(item);
        }
        return !v.empty() && t == join(v, &decimal);
      });
  EXPECT_GT(seeds, 500);

  using Kinds = std::vector<sched::PolicyKind>;
  const auto kinds = check_cli_values<Kinds>(
      {"np,preemptive,quantum", "quantum"}, 600,
      [](const char* s, Kinds* out) {
        return cli::parse_list(s, out, sched::parse_policy_name);
      },
      [](const Kinds& v) {
        std::string out;
        for (const sched::PolicyKind k : v) {
          out += (out.empty() ? "" : ",") + std::string(sched::policy_name(k));
        }
        return out;
      },
      [](const std::string&, const Kinds& v) { return !v.empty(); });
  EXPECT_GT(kinds, 100);
}

TEST(ParseMutationTest, FractionsParseInRangeAndRoundTrip) {
  const auto accepted = check_cli_values<double>(
      {"0.25", "1", "0", "1e-300", "0.9999999999999999"}, 700,
      cli::parse_fraction, &JsonWriter::number,
      [](const std::string&, double v) { return v >= 0.0 && v <= 1.0; });
  EXPECT_GT(accepted, 1000);
}

/// The setter of a flag declared as cli::integer(&x, lo, hi).
template <typename T>
long long check_integer_setter(const std::vector<std::string>& seeds,
                               std::uint64_t rng_seed, T lo, T hi) {
  return check_cli_values<T>(
      seeds, rng_seed,
      [=](const char* s, T* out) {
        return cli::integer(out, lo, hi)(s, nullptr);
      },
      [](T v) { return std::to_string(v); },
      [=](const std::string& text, T v) {
        return v >= lo && v <= hi && spelled(text) == std::to_string(v);
      });
}

TEST(ParseMutationTest, IntegerSettersAcceptOnlyTheirRange) {
  EXPECT_GT(check_integer_setter<int>({"2", "64", "-2147483648"}, 800, 1, 64),
            100);
  EXPECT_GT(check_integer_setter<int>({"2147483647", "-2147483648", "0"}, 810,
                                      std::numeric_limits<int>::min(),
                                      std::numeric_limits<int>::max()),
            1000);
  EXPECT_GT(check_integer_setter<rt::Cycles>(
                {"1000000", "9223372036854775807", "18446744073709551615"},
                820, 1, std::numeric_limits<rt::Cycles>::max()),
            1000);
  EXPECT_GT(check_integer_setter<std::uint64_t>(
                {"18446744073709551615", "7", "0"}, 830, 0,
                std::numeric_limits<std::uint64_t>::max()),
            1000);
}

}  // namespace
}  // namespace qosctrl
