// Tests: src/common/json — the dependency-free JSON writer/parser the
// experiment reports are built on. Determinism of dump() is load-bearing
// (byte-identical batch reports), so it is pinned here.
#include <gtest/gtest.h>

#include "src/common/json.h"

namespace mpcn {
namespace {

TEST(Json, ScalarKinds) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_EQ(Json(true).as_bool(), true);
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json(std::int64_t{-7}).as_int(), -7);
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
  // Integers read as doubles too (JSON "number"), not vice versa.
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);
  EXPECT_THROW(Json(2.5).as_int(), JsonError);
  EXPECT_THROW(Json("x").as_bool(), JsonError);
}

TEST(Json, DumpCompact) {
  Json obj = Json::object();
  obj.set("name", "run").set("n", 4).set("ok", true).set("none", Json::null());
  Json arr = Json::array();
  arr.push(1).push(2.5).push("three");
  obj.set("items", std::move(arr));
  EXPECT_EQ(obj.dump(),
            "{\"name\":\"run\",\"n\":4,\"ok\":true,\"none\":null,"
            "\"items\":[1,2.5,\"three\"]}");
}

TEST(Json, DumpPreservesInsertionOrder) {
  Json a = Json::object();
  a.set("z", 1).set("a", 2);
  EXPECT_EQ(a.dump(), "{\"z\":1,\"a\":2}");
  // Re-setting a key keeps its original position (stable bytes).
  a.set("z", 3);
  EXPECT_EQ(a.dump(), "{\"z\":3,\"a\":2}");
}

TEST(Json, StringEscapes) {
  const std::string raw = "a\"b\\c\nd\te\x01" "f";
  const Json j(raw);
  EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
  EXPECT_EQ(Json::parse(j.dump()).as_string(), raw);
}

TEST(Json, IntDoubleDistinctionSurvivesRoundTrip) {
  EXPECT_EQ(Json::parse("1").kind(), Json::Kind::kInt);
  EXPECT_EQ(Json::parse("1.0").kind(), Json::Kind::kDouble);
  EXPECT_EQ(Json::parse(Json(1.0).dump()).kind(), Json::Kind::kDouble);
  EXPECT_EQ(Json::parse(Json(std::int64_t{1}).dump()).kind(),
            Json::Kind::kInt);
  EXPECT_EQ(Json::parse("1e3").as_double(), 1000.0);
}

TEST(Json, ParseRoundTripStructured) {
  const std::string text =
      "{\"a\":[1,2,{\"b\":null,\"c\":[true,false]}],\"d\":\"x\"}";
  Json j = Json::parse(text);
  EXPECT_EQ(j.dump(), text);
  EXPECT_EQ(j.at("a").at(2).at("c").at(1).as_bool(), false);
  EXPECT_EQ(j.at("d").as_string(), "x");
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.at("missing"), JsonError);
}

TEST(Json, ParsePrettyOutput) {
  Json obj = Json::object();
  Json inner = Json::array();
  inner.push(1).push(Json::object());
  obj.set("k", std::move(inner));
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), obj);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("{a:1}"), JsonError);
  // RFC 8259 number strictness.
  EXPECT_THROW(Json::parse("01"), JsonError);
  EXPECT_THROW(Json::parse("-01"), JsonError);
  EXPECT_THROW(Json::parse("1."), JsonError);
  EXPECT_THROW(Json::parse(".5"), JsonError);
  EXPECT_THROW(Json::parse("-.5"), JsonError);
  EXPECT_THROW(Json::parse("1e"), JsonError);
  EXPECT_THROW(Json::parse("1e+"), JsonError);
  EXPECT_EQ(Json::parse("-0").as_int(), 0);
  EXPECT_DOUBLE_EQ(Json::parse("0.5").as_double(), 0.5);
  // Out-of-range numbers fail as JsonError, not std::out_of_range.
  EXPECT_THROW(Json::parse("1e999"), JsonError);
}

TEST(Json, EqualityIsStructural) {
  EXPECT_EQ(Json::parse("{\"a\":[1,2]}"), Json::parse("{\"a\":[1,2]}"));
  EXPECT_NE(Json::parse("{\"a\":[1,2]}"), Json::parse("{\"a\":[2,1]}"));
  EXPECT_NE(Json(1), Json(1.0));  // kinds differ
}

TEST(Json, AsInt32NarrowsOnlyInRange) {
  EXPECT_EQ(Json::parse("2147483647").as_int32(), 2147483647);
  EXPECT_EQ(Json::parse("-2147483648").as_int32(), -2147483647 - 1);
  EXPECT_THROW(Json::parse("2147483648").as_int32(), JsonError);
  EXPECT_THROW(Json::parse("-2147483649").as_int32(), JsonError);
  EXPECT_THROW(Json::parse("4294967299").as_int32(), JsonError);  // not 3
  EXPECT_THROW(Json::parse("\"7\"").as_int32(), JsonError);
}

}  // namespace
}  // namespace mpcn
