// The JSON module's contract, both ways.  The writer round-trips
// through the reader (random documents: nesting, every ASCII byte,
// UTF-8, 53-bit integers, finite doubles down to subnormals), prints
// -0.0 as 0 and refuses non-finite numbers.  The reader reads the
// farm's own report, preserves object member order, and rejects the
// malformed inputs strict JSON rejects.
#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/simulator.h"
#include "obs/slo.h"
#include "util/rng.h"

namespace qosctrl::util {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(parse_json(text, &v, &error)) << text << ": " << error;
  return v;
}

std::string parse_error(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json(text, &v, &error)) << text;
  return error;
}

TEST(JsonTest, Scalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_ok("42").as_number(), 42.0);
  EXPECT_EQ(parse_ok("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse_ok("0.25").as_number(), 0.25);
  EXPECT_DOUBLE_EQ(parse_ok("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_ok("-2.5E-2").as_number(), -0.025);
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
  // 53-bit integers survive the double representation exactly.
  EXPECT_EQ(parse_ok("9007199254740991").as_int(), 9007199254740991LL);
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(parse_ok("\"a\\\"b\\\\c\\/d\"").as_string(), "a\"b\\c/d");
  EXPECT_EQ(parse_ok("\"\\b\\f\\n\\r\\t\"").as_string(), "\b\f\n\r\t");
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");      // é
  EXPECT_EQ(parse_ok("\"\\u20ac\"").as_string(), "\xe2\x82\xac");  // €
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse_ok("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonTest, ArraysAndObjects) {
  const JsonValue arr = parse_ok(" [1, [2, 3], {\"k\": 4}, null] ");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.items().size(), 4u);
  EXPECT_EQ(arr.items()[0].as_int(), 1);
  EXPECT_EQ(arr.items()[1].items()[1].as_int(), 3);
  EXPECT_EQ(arr.items()[2].find("k")->as_int(), 4);
  EXPECT_TRUE(arr.items()[3].is_null());
  EXPECT_TRUE(parse_ok("[]").items().empty());
  EXPECT_TRUE(parse_ok("{}").members().empty());

  // Member order is preserved; find is by key, kinds are checkable.
  const JsonValue obj = parse_ok("{\"b\":1,\"a\":{\"x\":true},\"c\":[]}");
  ASSERT_EQ(obj.members().size(), 3u);
  EXPECT_EQ(obj.members()[0].first, "b");
  EXPECT_EQ(obj.members()[1].first, "a");
  EXPECT_NE(obj.find("a", JsonKind::kObject), nullptr);
  EXPECT_EQ(obj.find("a", JsonKind::kArray), nullptr);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_EQ(obj.find("b")->as_int(), 1);
}

TEST(JsonTest, ParsesAFarmReportShape) {
  // The exact nesting qosreport reads, from a real report: timeseries
  // tracks of number rows plus the SLO objective array.
  farm::LoadGenConfig load;
  load.num_streams = 4;
  load.min_frames = 2;
  load.max_frames = 3;
  load.seed = 3;
  farm::FarmConfig cfg;
  cfg.num_processors = 2;
  cfg.ts_window = 4000000;
  cfg.slos.emplace_back();
  ASSERT_TRUE(obs::parse_slo("miss_rate<=1", &cfg.slos.back(), nullptr));
  const JsonValue doc = parse_ok(
      farm::to_json(farm::run_farm(farm::generate_scenario(load), cfg)));
  const JsonValue* ts = doc.find("timeseries", JsonKind::kObject);
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->find("window")->as_int(), 4000000);
  const JsonValue* tracks = ts->find("tracks", JsonKind::kObject);
  ASSERT_NE(tracks, nullptr);
  const JsonValue* track = tracks->find("frame_latency_cycles");
  ASSERT_NE(track, nullptr);
  ASSERT_FALSE(track->items().empty());
  for (const JsonValue& row : track->items()) {
    EXPECT_EQ(row.items().size(), 8u);  // [w,count,sum,min,max,p50,p95,p99]
  }
  const JsonValue* slo = doc.find("slo", JsonKind::kObject);
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->find("objectives", JsonKind::kArray)->items().size(), 1u);
  EXPECT_TRUE(slo->find("all_met")->as_bool());
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_NE(parse_error(""), "");
  EXPECT_NE(parse_error("{"), "");
  EXPECT_NE(parse_error("[1,"), "");
  EXPECT_NE(parse_error("[1,]"), "");         // trailing comma
  EXPECT_NE(parse_error("{\"a\":1,}"), "");   // trailing comma
  EXPECT_NE(parse_error("{a:1}"), "");        // unquoted key
  EXPECT_NE(parse_error("{\"a\" 1}"), "");    // missing colon
  EXPECT_NE(parse_error("\"unterminated"), "");
  EXPECT_NE(parse_error("\"bad \\q escape\""), "");
  EXPECT_NE(parse_error("\"\\ud83d\""), "");  // unpaired surrogate
  EXPECT_NE(parse_error("nul"), "");
  EXPECT_NE(parse_error("truefalse"), "");    // trailing garbage
  EXPECT_NE(parse_error("1 2"), "");
  EXPECT_NE(parse_error("+5"), "");
  EXPECT_NE(parse_error("0x10"), "");
  EXPECT_NE(parse_error("1e999"), "");        // overflows to infinity
  EXPECT_NE(parse_error("NaN"), "");
  // Error messages carry the line of the failure.
  EXPECT_EQ(parse_error("{\n\"a\": }").substr(0, 7), "line 2:");
}

TEST(JsonTest, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_NE(parse_error(deep), "");
  std::string fine;
  for (int i = 0; i < 100; ++i) fine += '[';
  for (int i = 0; i < 100; ++i) fine += ']';
  JsonValue v;
  EXPECT_TRUE(parse_json(fine, &v, nullptr));
}

/// A random document: what was written, to compare the parse against.
/// Arrays keep their elements in `members` with empty keys.  The writer
/// has no null (no report writes one), so documents hold none.
struct Doc {
  JsonKind kind = JsonKind::kNull;
  bool flag = false;
  double number = 0.0;
  bool integer = false;  ///< written through the integral overload
  std::string text;
  std::vector<std::pair<std::string, Doc>> members;
};

/// Bytes 0x01-0x7f plus multi-byte UTF-8 (2-, 3- and 4-byte forms).
std::string random_string(Rng& rng) {
  static const char* const kUtf8[] = {"\xc3\xa9", "\xe2\x82\xac",
                                      "\xf0\x9f\x98\x80"};
  std::string s;
  const auto n = rng.uniform_i64(0, 12);
  for (std::int64_t i = 0; i < n; ++i) {
    if (rng.chance(0.2)) {
      s += kUtf8[rng.uniform_i64(0, 2)];
    } else {
      s += static_cast<char>(rng.uniform_i64(0x01, 0x7f));
    }
  }
  return s;
}

/// A finite double: random bit patterns (subnormals included), scaled
/// integers, decimals, and the extremes.
double random_double(Rng& rng) {
  static const double kEdges[] = {
      1e300, -1e300, 0.1, 5e-324, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(), 0x1p53, -0x1p53, 0x1p63, -0x1p63,
      0x1p62 + 1024.0, 1e17, 123456789.25};
  switch (rng.uniform_i64(0, 4)) {
    case 0:
      return kEdges[rng.uniform_i64(0, std::size(kEdges) - 1)];
    case 1:  // subnormal
      return std::bit_cast<double>(rng.next_u64() >> 12) *
             (rng.chance(0.5) ? 1 : -1);
    case 2:
      return static_cast<double>(rng.uniform_i64(-1000000, 1000000)) *
             std::pow(10.0, static_cast<double>(rng.uniform_i64(-8, 8)));
    default: {
      double d = 0.0;
      do {
        d = std::bit_cast<double>(rng.next_u64());
      } while (!std::isfinite(d));
      return d;
    }
  }
}

Doc random_doc(Rng& rng, int depth) {
  Doc d;
  const auto pick = rng.uniform_i64(1, depth > 4 ? 4 : 6);
  switch (pick) {
    case 1:
      d.kind = JsonKind::kBool;
      d.flag = rng.chance(0.5);
      break;
    case 2:
      d.kind = JsonKind::kString;
      d.text = random_string(rng);
      break;
    case 3: {
      d.kind = JsonKind::kNumber;
      constexpr std::int64_t k53 = std::int64_t{1} << 53;
      const std::int64_t edges[] = {k53, -k53, 0, -1};
      d.number = static_cast<double>(
          rng.chance(0.3) ? edges[rng.uniform_i64(0, 3)]
                          : rng.uniform_i64(-k53, k53));
      d.integer = true;
      break;
    }
    case 4:
      d.kind = JsonKind::kNumber;
      d.number = random_double(rng);
      break;
    default: {
      d.kind = pick == 5 ? JsonKind::kArray : JsonKind::kObject;
      const auto n = rng.uniform_i64(0, 5);  // empty containers included
      for (std::int64_t i = 0; i < n; ++i) {
        d.members.emplace_back(
            d.kind == JsonKind::kObject ? random_string(rng) : "",
            random_doc(rng, depth + 1));
      }
    }
  }
  return d;
}

void write_doc(const Doc& d, JsonWriter& w) {
  switch (d.kind) {
    case JsonKind::kNull:
      break;
    case JsonKind::kBool:
      w.value(d.flag);
      break;
    case JsonKind::kString:
      w.value(d.text);
      break;
    case JsonKind::kNumber:
      if (d.integer) {
        w.value(static_cast<long long>(d.number));
      } else {
        w.value(d.number);
      }
      break;
    case JsonKind::kArray:
    case JsonKind::kObject:
      d.kind == JsonKind::kArray ? w.begin_array() : w.begin_object();
      for (const auto& [key, member] : d.members) {
        if (d.kind == JsonKind::kObject) w.key(key);
        write_doc(member, w);
      }
      d.kind == JsonKind::kArray ? w.end_array() : w.end_object();
      break;
  }
}

void expect_same(const Doc& d, const JsonValue& v) {
  ASSERT_EQ(v.kind(), d.kind);
  switch (d.kind) {
    case JsonKind::kBool:
      EXPECT_EQ(v.as_bool(), d.flag);
      break;
    case JsonKind::kString:
      EXPECT_EQ(v.as_string(), d.text);
      break;
    case JsonKind::kNumber:
      EXPECT_EQ(v.as_number(), d.number) << std::hexfloat << d.number;
      break;
    case JsonKind::kArray:
      ASSERT_EQ(v.items().size(), d.members.size());
      for (std::size_t i = 0; i < d.members.size(); ++i) {
        expect_same(d.members[i].second, v.items()[i]);
      }
      break;
    case JsonKind::kObject:
      ASSERT_EQ(v.members().size(), d.members.size());
      for (std::size_t i = 0; i < d.members.size(); ++i) {
        EXPECT_EQ(v.members()[i].first, d.members[i].first);
        expect_same(d.members[i].second, v.members()[i].second);
      }
      break;
    case JsonKind::kNull:
      break;
  }
}

TEST(JsonWriterTest, RandomDocumentsRoundTripThroughTheReader) {
  Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    const Doc doc = random_doc(rng, 0);
    JsonWriter w;
    write_doc(doc, w);
    const std::string text = w.take();
    JsonValue back;
    std::string error;
    ASSERT_TRUE(parse_json(text, &back, &error)) << error << "\n" << text;
    expect_same(doc, back);
  }
}

TEST(JsonWriterTest, SeparatorsEscapesAndNumbers) {
  JsonWriter w;
  w.begin_object();
  w.field("a", 1);
  w.key("b");
  w.begin_array();
  w.value(-0.0);
  w.value(0.5);
  w.value(1e17);
  w.value(0x1p63);
  w.value(std::uint64_t{18446744073709551615ULL});
  w.value(true);
  w.begin_object();
  w.end_object();
  w.end_array();
  w.field("q\"\\\n\t\x01\x1f\x7f\xc3\xa9", "x");
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\"a\":1,\"b\":[0,0.5,100000000000000000,"
            "9.2233720368547758e+18,18446744073709551615,true,{}],"
            "\"q\\\"\\\\\\n\\t\\u0001\\u001f\x7f\xc3\xa9\":\"x\"}");
  EXPECT_EQ(JsonWriter::number(-0.0), "0");
  EXPECT_EQ(JsonWriter::number(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonWriter::number(-0x1p63), "-9.2233720368547758e+18");
  EXPECT_EQ(JsonWriter::number(std::nextafter(0x1p63, 0.0)),
            "9223372036854774784");
}

TEST(JsonWriterTest, NewlineHookBreaksBetweenElements) {
  JsonWriter w;
  w.begin_array();
  w.newline();
  w.value(1);
  w.newline();
  w.value(2);
  w.newline();
  w.end_array();
  w.newline();
  EXPECT_EQ(w.take(), "[\n1,\n2\n]\n");
}

TEST(JsonWriterDeathTest, RejectsNonFiniteNumbers) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    JsonWriter w;
    w.begin_array();
    EXPECT_DEATH(w.value(bad), "finite");
    EXPECT_DEATH(JsonWriter::number(bad), "finite");
  }
}

TEST(JsonWriterDeathTest, RejectsMisplacedTokens) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_DEATH(w.value(1), "out of place");  // a value needs a key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_DEATH(w.key("k"), "out of place");
    EXPECT_DEATH(w.end_object(), "does not match");
  }
  {
    JsonWriter w;
    w.value(1);
    EXPECT_DEATH(w.value(2), "out of place");  // one root
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_DEATH(w.take(), "incomplete");
  }
}

}  // namespace
}  // namespace qosctrl::util
