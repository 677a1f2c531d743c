// Tests for the JSON writer and the JSON analysis report.

#include "ssta/report.h"
#include "util/json.h"

#include "netlist/generators.h"

#include <sstream>

#include <gtest/gtest.h>

namespace statsize {
namespace {

TEST(JsonWriter, ObjectsArraysAndCommas) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array();
  w.value("x");
  w.value(2.5);
  w.value(true);
  w.null();
  w.end_array();
  w.key("c").begin_object();
  w.end_object();
  w.end_object();
  const std::string s = out.str();
  // Structure is valid: balanced braces, commas between siblings only.
  EXPECT_NE(s.find("\"a\": 1"), std::string::npos);
  EXPECT_NE(s.find("\"x\","), std::string::npos);
  EXPECT_NE(s.find("true"), std::string::npos);
  EXPECT_NE(s.find("null"), std::string::npos);
  EXPECT_NE(s.find("\"c\": {}"), std::string::npos);
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(util::JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(util::JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::JsonWriter::escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(util::JsonWriter::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(util::JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  const std::string s = out.str();
  EXPECT_NE(s.find("null"), std::string::npos);
  EXPECT_EQ(s.find("nan"), std::string::npos);
  EXPECT_EQ(s.find("inf"), std::string::npos);
}

TEST(JsonWriter, RoundTripsDoublesExactly) {
  std::ostringstream out;
  util::JsonWriter w(out);
  const double v = 6.9577763242898901;
  w.begin_array();
  w.value(v);
  w.end_array();
  const std::string s = out.str();
  const std::size_t a = s.find_first_of("0123456789");
  EXPECT_EQ(std::stod(s.substr(a)), v);
}

TEST(JsonReport, ContainsAllSections) {
  const netlist::Circuit c = netlist::make_tree_circuit();
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  std::ostringstream out;
  ssta::JsonReportOptions opt;
  opt.include_canonical = true;
  ssta::write_json_report(out, c, calc, speed, opt);
  const std::string s = out.str();
  for (const char* needle :
       {"\"circuit\"", "\"gates\": 7", "\"delay\"", "\"mu\"", "\"canonical_mu\"",
        "\"critical_path\"", "\"sum_speed\": 7", "\"meet_probability\""}) {
    EXPECT_NE(s.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
}

TEST(JsonReport, PerNodeSectionIsOptional) {
  const netlist::Circuit c = netlist::make_tree_circuit();
  const ssta::DelayCalculator calc(c, {0.25, 0.0});
  const std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()), 1.0);
  std::ostringstream out;
  ssta::JsonReportOptions opt;
  opt.include_per_node = false;
  ssta::write_json_report(out, c, calc, speed, opt);
  EXPECT_EQ(out.str().find("\"arrival_mu\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(JsonParser, ParsesScalars) {
  EXPECT_TRUE(util::parse_json("null").is_null());
  EXPECT_EQ(util::parse_json("true").as_bool(), true);
  EXPECT_EQ(util::parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(util::parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(util::parse_json("-0.5e2").as_number(), -50.0);
  EXPECT_EQ(util::parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(util::parse_json("  17  ").as_int(), 17);
}

TEST(JsonParser, ParsesNestedStructures) {
  const util::JsonValue v = util::parse_json(
      R"({"circuit": "c-abc", "type": "ssta", "params": {"deadline_ms": 250, "jobs": 4},
          "tags": ["a", "b"], "flag": true})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("circuit")->as_string(), "c-abc");
  EXPECT_EQ(v.find("params")->int_or("deadline_ms", 0), 250);
  EXPECT_EQ(v.find("params")->int_or("jobs", 1), 4);
  EXPECT_EQ(v.find("params")->int_or("absent", -3), -3);
  ASSERT_TRUE(v.find("tags")->is_array());
  EXPECT_EQ(v.find("tags")->items().size(), 2u);
  EXPECT_EQ(v.find("tags")->items()[1].as_string(), "b");
  EXPECT_TRUE(v.bool_or("flag", false));
  EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(JsonParser, ObjectPreservesMemberOrder) {
  const util::JsonValue v = util::parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
}

TEST(JsonParser, DecodesStringEscapes) {
  EXPECT_EQ(util::parse_json(R"("a\"b\\c\nd\t")").as_string(), "a\"b\\c\nd\t");
  // \u escapes: BMP code point (U+00E9), and a surrogate pair (U+1F600).
  EXPECT_EQ(util::parse_json(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(util::parse_json(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  // Raw UTF-8 bytes pass through untouched.
  EXPECT_EQ(util::parse_json("\"\xc3\xa9\"").as_string(), "\xc3\xa9");
  EXPECT_THROW(util::parse_json(R"("\ud83d")"), util::JsonParseError);
  EXPECT_THROW(util::parse_json(R"("\ude00")"), util::JsonParseError);
  EXPECT_THROW(util::parse_json(R"("\x41")"), util::JsonParseError);
}

TEST(JsonParser, RoundTripsWriterOutput) {
  std::ostringstream out;
  util::JsonWriter w(out);
  const double exact = 6.9577763242898901;
  w.begin_object();
  w.key("mu").value(exact);
  w.key("name").value("a\"b\nc");
  w.key("list").begin_array();
  w.value(1);
  w.value(false);
  w.null();
  w.end_array();
  w.end_object();
  const util::JsonValue v = util::parse_json(out.str());
  EXPECT_EQ(v.find("mu")->as_number(), exact);  // bit-exact through %.17g
  EXPECT_EQ(v.find("name")->as_string(), "a\"b\nc");
  EXPECT_EQ(v.find("list")->items().size(), 3u);
  EXPECT_TRUE(v.find("list")->items()[2].is_null());
}

TEST(JsonParser, RejectsTrailingGarbage) {
  // `{}{}` must not silently parse as `{}` — the serve satellite's regression.
  EXPECT_THROW(util::parse_json("{}{}"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("{} x"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("1 2"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("[1,2] ,"), util::JsonParseError);
  try {
    util::parse_json("{\"a\": 1}\ntrailing");
    FAIL() << "expected JsonParseError";
  } catch (const util::JsonParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(std::string(e.what()).find("trailing content"), std::string::npos);
  }
}

TEST(JsonParser, ReportsOneBasedLineAndColumn) {
  try {
    util::parse_json("{\n  \"a\": 1,\n  \"b\" 2\n}");
    FAIL() << "expected JsonParseError";
  } catch (const util::JsonParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 7);  // the '2' where ':' was expected
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("column 7"), std::string::npos);
  }
  try {
    util::parse_json("");
    FAIL() << "expected JsonParseError";
  } catch (const util::JsonParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 1);
  }
}

TEST(JsonParser, RejectsMalformedDocuments) {
  for (const char* bad :
       {"{", "[", "[1,]", "{\"a\":}", "{\"a\" 1}", "{a: 1}", "\"unterminated", "01", "1.",
        "1e", "+1", "nul", "truex", "[1 2]", "{\"a\": 1,}", "\x01"}) {
    EXPECT_THROW(util::parse_json(bad), util::JsonParseError) << bad;
  }
}

TEST(JsonParser, RejectsAbsurdNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(util::parse_json(deep), util::JsonParseError);
  // 100 levels is fine.
  std::string ok(100, '[');
  ok += std::string(100, ']');
  EXPECT_TRUE(util::parse_json(ok).is_array());
}

TEST(JsonParser, TypeMismatchesThrowNamedErrors) {
  const util::JsonValue v = util::parse_json(R"({"n": 1, "s": "x"})");
  EXPECT_THROW(v.find("n")->as_string(), std::runtime_error);
  EXPECT_THROW(v.find("s")->as_number(), std::runtime_error);
  EXPECT_THROW(v.as_number(), std::runtime_error);
  EXPECT_THROW(util::parse_json("1.5").as_int(), std::runtime_error);
  // A present-but-mistyped optional member must throw, not fall back.
  EXPECT_THROW(v.number_or("s", 0.0), std::runtime_error);
}

TEST(JsonParser, DefaultedAccessorsReadNullAsAbsentAndNameAMistypedMember) {
  const util::JsonValue v = util::parse_json(R"({"error": null, "seed": "one", "n": 2.5})");
  EXPECT_EQ(v.string_or("error", "none"), "none");
  EXPECT_EQ(v.number_or("error", 1.5), 1.5);
  EXPECT_EQ(v.int_or("error", 7), 7);
  EXPECT_TRUE(v.bool_or("error", true));
  try {
    v.int_or("seed", 0);
    ADD_FAILURE() << "a string seed read as an integer";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "seed: JSON value is string, expected number");
  }
  try {
    v.int_or("n", 0);
    ADD_FAILURE() << "2.5 read as an integer";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("n: ", 0), 0u) << e.what();
  }
}

}  // namespace
}  // namespace statsize
