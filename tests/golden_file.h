/// \file golden_file.h
/// Byte-for-byte comparison against a committed golden file.
///
/// Golden files live in tests/golden (ACTG_TEST_GOLDEN_DIR). Setting
/// ACTG_REGOLDEN in the environment rewrites the file from the current
/// output instead of comparing, and marks the test skipped:
///
///   ACTG_REGOLDEN=1 ./test_serve --gtest_filter='ServeGolden.*'

#ifndef ACTG_TESTS_GOLDEN_FILE_H
#define ACTG_TESTS_GOLDEN_FILE_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace actg::golden {

/// Expects \p actual to equal the golden file \p name byte for byte (or
/// regenerates it under ACTG_REGOLDEN).
inline void ExpectMatches(const std::string& actual,
                          const std::string& name) {
  const std::string path = std::string(ACTG_TEST_GOLDEN_DIR) + "/" + name;
  if (std::getenv("ACTG_REGOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "missing golden file " << path
                           << " (run with ACTG_REGOLDEN=1)";
  std::ostringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "output differs from " << path;
}

}  // namespace actg::golden

#endif  // ACTG_TESTS_GOLDEN_FILE_H
