#include "common/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hpcfail {
namespace {

TEST(Expects, PassesOnTrueCondition) {
  EXPECT_NO_THROW(HPCFAIL_EXPECTS(1 + 1 == 2, "arithmetic works"));
}

TEST(Expects, ThrowsInvalidArgumentWithContext) {
  try {
    HPCFAIL_EXPECTS(false, "the message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    // The location is relative to the source tree, so the message reads
    // the same wherever the library was built.
    EXPECT_NE(what.find("tests/common/error_test.cpp"), std::string::npos)
        << what;
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
  }
}

TEST(Assert, ThrowsLogicErrorWithCondition) {
  try {
    HPCFAIL_ASSERT(2 < 1);
    FAIL() << "should have thrown";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
  }
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw NumericError("x"), Error);
  EXPECT_THROW(throw LogicError("x"), Error);
  EXPECT_THROW(throw Error("x"), std::runtime_error);
}

}  // namespace
}  // namespace hpcfail
