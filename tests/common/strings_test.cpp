#include "common/strings.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace dcm {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, TrimStripsWhitespace) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("solid"), "solid");
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(parse_double("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 ").value(), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double("0").value(), 0.0);
}

TEST(StringsTest, ParseDoubleRejectsJunk) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
}

TEST(StringsTest, ParseRejectsTrailingGarbage) {
  EXPECT_FALSE(parse_double("1.5 x").has_value());
  EXPECT_FALSE(parse_double("2.0e").has_value());
  EXPECT_FALSE(parse_double(std::string_view("1.5\0", 4)).has_value());  // embedded NUL
  EXPECT_FALSE(parse_int("42abc").has_value());
  EXPECT_FALSE(parse_int("42 7").has_value());
  EXPECT_FALSE(parse_int(std::string_view("7\0", 2)).has_value());
  // The terminated copy covers exactly the trimmed view, not what follows it.
  const std::string_view digits = std::string_view("12345").substr(0, 3);
  EXPECT_EQ(parse_int(digits).value(), 123);
}

TEST(StringsTest, ParseHandlesInputLongerThanTheStackCopy) {
  const std::string long_double = "0." + std::string(200, '0') + "1";
  EXPECT_DOUBLE_EQ(parse_double(long_double).value(), 1e-201);
  EXPECT_FALSE(parse_double(long_double + "x").has_value());
  const std::string long_int = std::string(100, '0') + "42";
  EXPECT_EQ(parse_int(long_int).value(), 42);
  EXPECT_FALSE(parse_int(long_int + "!").has_value());
}

TEST(StringsTest, ParseIntValid) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int(" -7 ").value(), -7);
}

TEST(StringsTest, ParseIntRejectsJunk) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
  EXPECT_FALSE(parse_int("x4").has_value());
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("tomcat-vm1", "tomcat"));
  EXPECT_FALSE(starts_with("tom", "tomcat"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(str_format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(str_format("%.2f", 1.5), "1.50");
  EXPECT_EQ(str_format("empty"), "empty");
}

TEST(StringsTest, StrFormatOutputLongerThanTheStackBuffer) {
  // Lengths either side of the 256-byte stack buffer, and far past it.
  for (const size_t n : {254u, 255u, 256u, 257u, 4000u}) {
    const std::string body(n, 'y');
    const std::string out = str_format("<%s>", body.c_str());
    EXPECT_EQ(out.size(), n + 2);
    EXPECT_EQ(out, "<" + body + ">");
  }
  EXPECT_EQ(str_format("%s", ""), "");
}

}  // namespace
}  // namespace dcm
